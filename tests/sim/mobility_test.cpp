// Tests for the random-waypoint mobility extension.
#include "sim/mobility.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/controller.hpp"
#include "core/validate.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace gc::sim {
namespace {

net::Topology make_topology(int users, double area, std::uint64_t seed) {
  Rng rng(seed);
  return net::Topology::paper_layout(users, area, net::PropagationParams{},
                                     rng);
}

TEST(Mobility, BaseStationsNeverMove) {
  auto topo = make_topology(8, 1000.0, 1);
  const net::Vec2 bs0 = topo.position(0), bs1 = topo.position(1);
  RandomWaypoint walker({1.0, 3.0, 1000.0}, topo, 5);
  for (int t = 0; t < 50; ++t) walker.advance(60.0, topo);
  EXPECT_DOUBLE_EQ(topo.position(0).x, bs0.x);
  EXPECT_DOUBLE_EQ(topo.position(0).y, bs0.y);
  EXPECT_DOUBLE_EQ(topo.position(1).x, bs1.x);
  EXPECT_DOUBLE_EQ(topo.position(1).y, bs1.y);
}

TEST(Mobility, UsersMoveWithinSpeedBound) {
  auto topo = make_topology(10, 1500.0, 2);
  const MobilityConfig cfg{0.5, 2.0, 1500.0};
  RandomWaypoint walker(cfg, topo, 7);
  std::vector<net::Vec2> before;
  for (int u = 2; u < topo.num_nodes(); ++u)
    before.push_back(topo.position(u));
  const double dt = 60.0;
  walker.advance(dt, topo);
  for (int u = 2; u < topo.num_nodes(); ++u) {
    const double moved = net::distance(before[u - 2], topo.position(u));
    EXPECT_LE(moved, cfg.speed_mps_hi * dt + 1e-9);
  }
}

TEST(Mobility, UsersActuallyMove) {
  auto topo = make_topology(10, 1500.0, 3);
  RandomWaypoint walker({1.0, 2.0, 1500.0}, topo, 9);
  std::vector<net::Vec2> before;
  for (int u = 2; u < topo.num_nodes(); ++u)
    before.push_back(topo.position(u));
  walker.advance(60.0, topo);
  double total_moved = 0.0;
  for (int u = 2; u < topo.num_nodes(); ++u)
    total_moved += net::distance(before[u - 2], topo.position(u));
  EXPECT_GT(total_moved, 10.0 * 60.0 * 0.5);  // everyone >= lo speed * dt
}

TEST(Mobility, PositionsStayInsideArea) {
  auto topo = make_topology(12, 800.0, 4);
  RandomWaypoint walker({2.0, 10.0, 800.0}, topo, 11);
  for (int t = 0; t < 200; ++t) {
    walker.advance(60.0, topo);
    for (int u = 2; u < topo.num_nodes(); ++u) {
      // Waypoints live in the area; linear motion between in-area points
      // stays in the (convex) area.
      EXPECT_GE(topo.position(u).x, -1e-9);
      EXPECT_LE(topo.position(u).x, 800.0 + 1e-9);
      EXPECT_GE(topo.position(u).y, -1e-9);
      EXPECT_LE(topo.position(u).y, 800.0 + 1e-9);
    }
  }
}

TEST(Mobility, GainsTrackPositions) {
  auto topo = make_topology(4, 1000.0, 5);
  RandomWaypoint walker({1.0, 2.0, 1000.0}, topo, 13);
  walker.advance(60.0, topo);
  // Recompute one gain by hand.
  const double d =
      std::max(topo.distance(0, 3), topo.propagation().min_distance_m);
  EXPECT_NEAR(topo.gain(0, 3),
              topo.propagation().antenna_constant *
                  std::pow(d, -topo.propagation().path_loss_exponent),
              topo.gain(0, 3) * 1e-12);
  EXPECT_DOUBLE_EQ(topo.gain(0, 3), topo.gain(3, 0));
}

TEST(Mobility, ZeroSpeedIsStatic) {
  auto topo = make_topology(5, 600.0, 6);
  const net::Vec2 before = topo.position(3);
  RandomWaypoint walker({0.0, 0.0, 600.0}, topo, 15);
  walker.advance(60.0, topo);
  EXPECT_DOUBLE_EQ(topo.position(3).x, before.x);
  EXPECT_DOUBLE_EQ(topo.position(3).y, before.y);
}

TEST(Mobility, AstronomicSpeedStepEnds) {
  // At 1e12 m/s a 60 s step spans ~1e11 trips of a 600 m area; at 1e300
  // every leg is also below the ulp of the budget, so subtracting it never
  // lowers the budget. Either step must still end promptly.
  for (double speed : {1e12, 1e300}) {
    auto topo = make_topology(5, 600.0, 6);
    RandomWaypoint walker({speed, speed, 600.0}, topo, 15);
    walker.advance(60.0, topo);
    for (int u = 2; u < topo.num_nodes(); ++u) {
      EXPECT_GE(topo.position(u).x, 0.0);
      EXPECT_LE(topo.position(u).x, 600.0);
    }
  }
}

TEST(Mobility, NonFiniteSpeedIsRejected) {
  auto topo = make_topology(5, 600.0, 6);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(RandomWaypoint({0.0, inf, 600.0}, topo, 1), CheckError);
  EXPECT_THROW(RandomWaypoint({inf, inf, 600.0}, topo, 1), CheckError);
  EXPECT_THROW(RandomWaypoint({0.0, std::nan(""), 600.0}, topo, 1),
               CheckError);
}

TEST(Mobility, DeterministicUnderSeed) {
  auto t1 = make_topology(6, 900.0, 7);
  auto t2 = make_topology(6, 900.0, 7);
  RandomWaypoint w1({1.0, 3.0, 900.0}, t1, 21);
  RandomWaypoint w2({1.0, 3.0, 900.0}, t2, 21);
  for (int t = 0; t < 20; ++t) {
    w1.advance(60.0, t1);
    w2.advance(60.0, t2);
  }
  for (int u = 2; u < t1.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(t1.position(u).x, t2.position(u).x);
    EXPECT_DOUBLE_EQ(t1.position(u).y, t2.position(u).y);
  }
}

TEST(Mobility, ControllerRunsCleanWhileUsersWalk) {
  auto cfg = ScenarioConfig::tiny();
  auto model = cfg.build();
  core::LyapunovController controller(model, 2.0, cfg.controller_options());
  SimOptions so;
  so.validate = true;
  const MobilityConfig mob{1.0, 3.0, cfg.area_m};
  const Metrics m = run_simulation_mobile(model, controller, 40, mob, so);
  EXPECT_EQ(m.slots, 40);
  EXPECT_GT(m.total_delivered_packets, 0.0);
}

TEST(Mobility, VehicularSpeedsStillStable) {
  auto cfg = ScenarioConfig::tiny();
  auto model = cfg.build();
  core::LyapunovController controller(model, 2.0, cfg.controller_options());
  const MobilityConfig mob{10.0, 30.0, cfg.area_m};  // vehicular
  const Metrics m = run_simulation_mobile(model, controller, 300, mob, {});
  const double scale = 1.0 + m.q_total_stability.tail_sup_partial_average();
  EXPECT_LT(m.q_total_stability.tail_growth_rate(), 0.005 * scale);
}

TEST(Mobility, MobileRunDiffersFromStatic) {
  auto cfg = ScenarioConfig::tiny();
  auto m1 = cfg.build();
  auto m2 = cfg.build();
  core::LyapunovController c1(m1, 2.0, cfg.controller_options());
  core::LyapunovController c2(m2, 2.0, cfg.controller_options());
  const Metrics stat = run_simulation(m1, c1, 40);
  const Metrics mob =
      run_simulation_mobile(m2, c2, 40, {1.0, 3.0, cfg.area_m});
  EXPECT_NE(stat.cost, mob.cost);
}

}  // namespace
}  // namespace gc::sim
