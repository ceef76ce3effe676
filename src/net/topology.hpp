// Network geometry: node positions, base-station/user kinds, and the power
// propagation gain g_ij = C * d(i,j)^-gamma of Section II-B.
//
// The gain is a function of two positions, so it is computed on demand
// rather than cached: the topology holds O(n) state, and a mobility step or
// a checkpoint restore only writes positions. Scans that touch many pairs
// either screen on squared distance first (net/link_prune) or tabulate the
// few gains they reuse (net/power_control).
//
// Node indexing convention used throughout the project: nodes
// [0, num_base_stations) are base stations, [num_base_stations, num_nodes)
// are mobile users.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace gc::net {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

double distance(const Vec2& a, const Vec2& b);

struct PropagationParams {
  double antenna_constant = 62.5;  // C in g = C d^-gamma (paper Sec. VI)
  double path_loss_exponent = 4.0; // gamma
  // Distance floor so two randomly placed nodes that nearly coincide do not
  // produce an unbounded gain; 1 m is below any plausible device spacing.
  double min_distance_m = 1.0;
};

class Topology {
 public:
  Topology(std::vector<Vec2> base_stations, std::vector<Vec2> users,
           const PropagationParams& prop);

  // The paper's layout: `area` x `area` square, two base stations at
  // (area/4, area/4) and (3*area/4, area/4), `num_users` users placed
  // uniformly at random.
  static Topology paper_layout(int num_users, double area_m,
                               const PropagationParams& prop, Rng& rng);

  int num_nodes() const { return static_cast<int>(pos_.size()); }
  int num_base_stations() const { return num_bs_; }
  int num_users() const { return num_nodes() - num_bs_; }
  bool is_base_station(int node) const { return check(node) < num_bs_; }
  const Vec2& position(int node) const { return pos_[check(node)]; }

  // Every position, indexed by node: unchecked access for O(n^2) scans.
  std::span<const Vec2> positions() const { return pos_; }

  double distance(int i, int j) const;
  // Power propagation gain g_ij = C * max(d(i,j), d_min)^-gamma, computed
  // from the two current positions. Symmetric bit for bit (hypot of the
  // negated differences is bit-equal); undefined for i == j.
  double gain(int i, int j) const;

  // Moves nodes [first, first + positions.size()) to `positions` (O(k) for
  // k nodes). Used by the mobility models and the checkpoint restore; base
  // stations stay where Section VI put them, but the method itself is
  // position-agnostic.
  void set_positions(int first, std::span<const Vec2> positions);
  void set_position(int node, const Vec2& position) {
    set_positions(node, {&position, 1});
  }

  const PropagationParams& propagation() const { return prop_; }

  // Monotone mutation counter, bumped by every set_positions. Lets caches
  // derived from positions (core::NetworkModel's link-prune map) detect
  // staleness lazily instead of rebuilding on every mobility step.
  std::uint64_t version() const { return version_; }

 private:
  int check(int node) const {
    GC_CHECK_MSG(node >= 0 && node < num_nodes(), "bad node index " << node);
    return node;
  }

  std::vector<Vec2> pos_;
  int num_bs_;
  PropagationParams prop_;
  std::uint64_t version_ = 0;
};

}  // namespace gc::net
