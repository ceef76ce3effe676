#include "sim/mobility.hpp"

#include <cmath>

namespace gc::sim {

RandomWaypoint::RandomWaypoint(const MobilityConfig& config,
                               const net::Topology& topology,
                               std::uint64_t seed)
    : config_(config),
      first_user_(topology.num_base_stations()),
      rng_(seed) {
  config_.validate();
  trips_.resize(static_cast<std::size_t>(topology.num_users()));
  for (auto& trip : trips_) new_trip(trip);
}

void RandomWaypoint::new_trip(Trip& trip) {
  trip.target = {rng_.uniform(0.0, config_.area_m),
                 rng_.uniform(0.0, config_.area_m)};
  trip.speed_mps = rng_.uniform(config_.speed_mps_lo, config_.speed_mps_hi);
}

RandomWaypoint::Snapshot RandomWaypoint::snapshot() const {
  Snapshot snap;
  snap.targets.reserve(trips_.size());
  snap.speeds_mps.reserve(trips_.size());
  for (const auto& trip : trips_) {
    snap.targets.push_back(trip.target);
    snap.speeds_mps.push_back(trip.speed_mps);
  }
  snap.rng = rng_.state();
  return snap;
}

void RandomWaypoint::restore(const Snapshot& snapshot) {
  GC_CHECK_MSG(snapshot.targets.size() == trips_.size() &&
                   snapshot.speeds_mps.size() == trips_.size(),
               "mobility snapshot arity mismatch");
  for (std::size_t u = 0; u < trips_.size(); ++u) {
    trips_[u].target = snapshot.targets[u];
    trips_[u].speed_mps = snapshot.speeds_mps[u];
  }
  rng_.set_state(snapshot.rng);
}

void RandomWaypoint::advance(double dt, net::Topology& topology) {
  GC_CHECK(dt > 0.0);
  GC_CHECK(topology.num_base_stations() == first_user_);
  GC_CHECK(static_cast<std::size_t>(topology.num_users()) == trips_.size());
  std::vector<net::Vec2> moved;
  moved.reserve(trips_.size());
  for (std::size_t u = 0; u < trips_.size(); ++u) {
    net::Vec2 pos = topology.position(first_user_ + static_cast<int>(u));
    double budget = trips_[u].speed_mps * dt;
    // A fast user can finish a trip mid-slot and start the next one. After
    // kMaxLegs trips in one step a walker is spread uniformly over the area,
    // so the step ends there: the work stays bounded for any finite speed.
    constexpr int kMaxLegs = 1024;
    for (int legs = 0; budget > 0.0 && legs < kMaxLegs; ++legs) {
      const double dx = trips_[u].target.x - pos.x;
      const double dy = trips_[u].target.y - pos.y;
      const double dist = std::hypot(dx, dy);
      if (dist <= budget) {
        pos = trips_[u].target;
        budget -= dist;
        new_trip(trips_[u]);
        if (trips_[u].speed_mps <= 0.0) break;  // parked
      } else {
        pos.x += dx / dist * budget;
        pos.y += dy / dist * budget;
        budget = 0.0;
      }
    }
    moved.push_back(pos);
  }
  // One refresh for the whole walk: each moved pair's gain is computed
  // once, from both final positions.
  topology.set_positions(first_user_, moved);
}

}  // namespace gc::sim
