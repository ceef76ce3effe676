// User mobility (extension; the paper calls its users mobile but evaluates
// a static placement).
//
// Random-waypoint model: each user walks toward a uniformly random target
// at a per-trip uniform speed, picking a new target and speed on arrival.
// Base stations never move. Positions update once per slot, and one
// Topology::set_positions call refreshes the affected gains, so the
// controller sees the new channel at the next observation — which is
// exactly when the paper's slotted model re-observes the random state.
//
// Mobility leaves the Lyapunov analysis intact: beta and B (eq. (34))
// depend on bandwidths and packet sizes, not on positions, and gains enter
// only through per-slot feasibility and power control.
#pragma once

#include <cmath>
#include <vector>

#include "net/topology.hpp"
#include "util/rng.hpp"

namespace gc::sim {

struct MobilityConfig {
  double speed_mps_lo = 0.5;  // pedestrian range by default
  double speed_mps_hi = 2.0;
  double area_m = 2000.0;  // waypoints drawn in [0, area]^2

  void validate() const {
    GC_CHECK(speed_mps_lo >= 0.0 && speed_mps_hi >= speed_mps_lo);
    GC_CHECK(std::isfinite(speed_mps_hi));
    GC_CHECK(area_m > 0.0);
  }
};

class RandomWaypoint {
 public:
  // Users are the nodes [topology.num_base_stations(), num_nodes()); their
  // current positions seed the first trips.
  RandomWaypoint(const MobilityConfig& config, const net::Topology& topology,
                 std::uint64_t seed);

  // Advances every user by `dt` seconds and writes the new positions (and
  // gains) into `topology`.
  void advance(double dt, net::Topology& topology);

  const net::Vec2& target(int user_index) const {
    return trips_[user_index].target;
  }
  double speed_mps(int user_index) const {
    return trips_[user_index].speed_mps;
  }

  // Checkpoint support (sim/checkpoint.hpp): the walker's full dynamic
  // state — trips in flight plus the RNG position. User positions live in
  // the Topology and are checkpointed separately.
  struct Snapshot {
    std::vector<net::Vec2> targets;
    std::vector<double> speeds_mps;
    RngState rng;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& snapshot);

 private:
  struct Trip {
    net::Vec2 target;
    double speed_mps;
  };
  void new_trip(Trip& trip);

  MobilityConfig config_;
  int first_user_;
  std::vector<Trip> trips_;  // indexed by user (node - first_user_)
  Rng rng_;
};

}  // namespace gc::sim
