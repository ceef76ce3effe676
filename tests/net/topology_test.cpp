#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gc::net {
namespace {

PropagationParams paper_prop() { return PropagationParams{}; }

TEST(Topology, PaperLayoutPlacesBaseStations) {
  Rng rng(1);
  const auto topo = Topology::paper_layout(20, 2000.0, paper_prop(), rng);
  EXPECT_EQ(topo.num_nodes(), 22);
  EXPECT_EQ(topo.num_base_stations(), 2);
  EXPECT_EQ(topo.num_users(), 20);
  EXPECT_TRUE(topo.is_base_station(0));
  EXPECT_TRUE(topo.is_base_station(1));
  EXPECT_FALSE(topo.is_base_station(2));
  EXPECT_DOUBLE_EQ(topo.position(0).x, 500.0);
  EXPECT_DOUBLE_EQ(topo.position(0).y, 500.0);
  EXPECT_DOUBLE_EQ(topo.position(1).x, 1500.0);
  EXPECT_DOUBLE_EQ(topo.position(1).y, 500.0);
}

TEST(Topology, UsersInsideArea) {
  Rng rng(2);
  const auto topo = Topology::paper_layout(50, 1000.0, paper_prop(), rng);
  for (int u = topo.num_base_stations(); u < topo.num_nodes(); ++u) {
    EXPECT_GE(topo.position(u).x, 0.0);
    EXPECT_LE(topo.position(u).x, 1000.0);
    EXPECT_GE(topo.position(u).y, 0.0);
    EXPECT_LE(topo.position(u).y, 1000.0);
  }
}

TEST(Topology, GainFollowsPowerLaw) {
  // g = C d^-gamma with C = 62.5, gamma = 4 (paper Sec. VI).
  Topology topo({{0, 0}}, {{100, 0}}, paper_prop());
  EXPECT_NEAR(topo.gain(0, 1), 62.5 * std::pow(100.0, -4.0), 1e-18);
}

TEST(Topology, GainIsSymmetric) {
  // Bit for bit, after construction and after every set_position move.
  Rng rng(3);
  auto topo = Topology::paper_layout(30, 2000.0, paper_prop(), rng);
  const auto expect_symmetric = [&topo] {
    for (int i = 0; i < topo.num_nodes(); ++i)
      for (int j = i + 1; j < topo.num_nodes(); ++j)
        ASSERT_EQ(topo.gain(i, j), topo.gain(j, i)) << i << "," << j;
  };
  expect_symmetric();
  for (int step = 0; step < 10; ++step) {
    const int node = static_cast<int>(rng.uniform_int(0, topo.num_nodes() - 1));
    topo.set_position(node, {rng.uniform(0.0, 2000.0),
                             rng.uniform(0.0, 2000.0)});
    expect_symmetric();
  }
  // gain_row is the same cache, row by row.
  for (int i = 0; i < topo.num_nodes(); ++i)
    for (int j = 0; j < topo.num_nodes(); ++j)
      if (i != j) {
        EXPECT_EQ(topo.gain_row(i)[j], topo.gain(i, j));
      }
}

TEST(Topology, GainDecreasesWithDistance) {
  Topology topo({{0, 0}}, {{50, 0}, {200, 0}, {900, 0}}, paper_prop());
  EXPECT_GT(topo.gain(0, 1), topo.gain(0, 2));
  EXPECT_GT(topo.gain(0, 2), topo.gain(0, 3));
}

TEST(Topology, MinDistanceClampPreventsBlowup) {
  PropagationParams prop;
  prop.min_distance_m = 1.0;
  Topology topo({{0, 0}}, {{0.001, 0}}, prop);
  EXPECT_LE(topo.gain(0, 1), prop.antenna_constant);
}

TEST(Topology, SelfGainIsAnError) {
  Rng rng(4);
  const auto topo = Topology::paper_layout(3, 500.0, paper_prop(), rng);
  EXPECT_THROW(topo.gain(1, 1), CheckError);
}

TEST(Topology, DistanceMatchesEuclidean) {
  Topology topo({{0, 0}}, {{3, 4}}, paper_prop());
  EXPECT_DOUBLE_EQ(topo.distance(0, 1), 5.0);
}

TEST(Topology, DeterministicUnderSeed) {
  Rng r1(9), r2(9);
  const auto a = Topology::paper_layout(8, 1000.0, paper_prop(), r1);
  const auto b = Topology::paper_layout(8, 1000.0, paper_prop(), r2);
  for (int i = 0; i < a.num_nodes(); ++i) {
    EXPECT_DOUBLE_EQ(a.position(i).x, b.position(i).x);
    EXPECT_DOUBLE_EQ(a.position(i).y, b.position(i).y);
  }
}

TEST(Topology, RejectsEmptyBaseStations) {
  EXPECT_THROW(Topology({}, {{1, 1}}, paper_prop()), CheckError);
}

}  // namespace
}  // namespace gc::net
