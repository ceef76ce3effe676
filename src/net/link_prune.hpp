// Exact radio-range link pruning.
//
// The controller's candidate scans are O(n^2) over ordered node pairs, and
// on city-scale topologies almost every pair is out of radio range: a user
// with a 1 W power cap simply cannot close the SINR threshold against a
// receiver kilometers away. This map answers, per transmitter, the
// ascending list of receivers that at least one shared band could close in
// the most favorable case — maximum transmit power, zero interference, the
// band's minimum bandwidth:
//
//   p_max(tx) * g(tx, rx) >= Gamma * N0 * W_min(m)
//
// Interference and wider realized bandwidths only RAISE the power a link
// needs, so a pair failing this test is infeasible under every slot
// realization and every power-control outcome, for both PHY policies:
// MinPowerFixedRate's Foschini–Miljanic iteration can never satisfy it
// (its very first iterate already exceeds p_max), and MaxPowerAdaptiveRate
// drops it below threshold at p_max outright. A pruned link therefore
// carries zero rate always — removing it from the scans is exact, not
// approximate (docs/ALGORITHM.md "Why range pruning is exact").
//
// The screen decides most pairs on squared distance alone: with
// g = C * max(d, d_min)^-gamma the test is d^2 <= (p_max * C / need)^(2/gamma),
// and only pairs within a 1e-9 relative band of that threshold evaluate the
// gain (docs/ALGORITHM.md "Why the distance screen is exact").
//
// Rows are screened on demand. The constructor tabulates only the O(n +
// classes) screen; a transmitter's row is screened the first time
// out_neighbors asks for it and cached until the topology moves, and
// in_range screens its one pair without a row. So a slot pays for the rows
// its scans read (the backlogged transmitters), not for all n^2 pairs
// after every mobility step. The cache is mutable and unsynchronized: the
// slot path runs on one thread, and every reader goes through the owner's
// single thread (core::NetworkModel::pruned_links()).
#pragma once

#include <cstdint>
#include <vector>

#include "net/capacity.hpp"
#include "net/spectrum.hpp"
#include "net/topology.hpp"

namespace gc::net {

class LinkPruneMap {
 public:
  // `max_tx_power_w[i]` = P_max of node i. The map reads positions from
  // `topo`, which must outlive it or be handed to sync() again.
  LinkPruneMap(const Topology& topo, const Spectrum& spectrum,
               const RadioParams& radio,
               const std::vector<double>& max_tx_power_w);

  // Points the map at `topo` (its owner may have moved it) and, when topo's
  // version() moved since the rows were screened, drops every cached row,
  // keeping its capacity. Call it after moving nodes, before reading.
  void sync(const Topology& topo);

  // The range test for one pair, screened on the spot (no row needed).
  bool in_range(int tx, int rx) const;

  // Receivers tx can reach, ascending — the same order the dense O(n^2)
  // scans visit, so swapping a scan over to the list is order-preserving.
  // Screened on first use after each sync() that moved the topology (one
  // net.prune_build span per row, dim = receivers screened).
  const std::vector<int>& out_neighbors(int tx) const;

  // Ordered pairs (tx != rx) the dense scan would visit vs how many
  // survive the range test; exported into profile artifacts so speedups
  // stay attributable (tools/perf_report). kept_links() screens every row
  // on each call (O(n^2)); the slot path never calls it.
  std::int64_t total_links() const {
    return static_cast<std::int64_t>(n_) * (n_ - 1);
  }
  std::int64_t kept_links() const;
  std::int64_t pruned_links() const { return total_links() - kept_links(); }

  // The topology version the cached rows belong to.
  std::uint64_t topology_version() const { return version_; }

 private:
  // Writes tx's receivers, ascending, to out[0, count) and returns count;
  // `out` holds n entries.
  std::size_t screen_row(int tx, int* out) const;
  void check_synced() const;

  const Topology* topo_;
  int n_ = 0;
  std::uint64_t version_ = 0;
  std::size_t masks_ = 0;          // distinct band masks
  double s_floor_ = 0.0;           // min_distance^2
  std::vector<double> p_max_;      // per node
  std::vector<int> mask_id_;       // per node
  std::vector<std::size_t> class_; // per node: its transmitter class
  // min_need_[a * masks_ + b]: the smallest received power a band shared
  // by masks a and b could accept (+inf when they share none).
  std::vector<double> min_need_;
  // Per transmitter class x receiver mask: squared distances below
  // keep_below_ pass, above drop_above_ fail, between take the exact test.
  std::vector<double> keep_below_, drop_above_;
  // The row cache: rows_[tx] is current iff row_epoch_[tx] == epoch_.
  mutable std::vector<std::vector<int>> rows_;
  mutable std::vector<std::uint64_t> row_epoch_;
  mutable std::vector<int> scratch_;  // n entries: one row as screened
  std::uint64_t epoch_ = 1;
};

}  // namespace gc::net
