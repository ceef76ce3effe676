#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

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
}

// The closed form of Sec. II-B, written out here: g = C * max(d, d_min)^-gamma
// with d the Euclidean distance between the two current positions.
double closed_form_gain(const Topology& topo, int i, int j) {
  const auto& prop = topo.propagation();
  const Vec2& a = topo.position(i);
  const Vec2& b = topo.position(j);
  const double d =
      std::max(std::hypot(a.x - b.x, a.y - b.y), prop.min_distance_m);
  return prop.antenna_constant * std::pow(d, -prop.path_loss_exponent);
}

// After every seeded batch of moves, gain(i, j) equals the closed form at
// the current positions bit for bit, and equals gain(j, i).
TEST(Topology, GainMatchesClosedFormAfterMoves) {
  Rng rng(31);
  PropagationParams prop;
  prop.path_loss_exponent = 3.7;
  prop.min_distance_m = 2.5;
  auto topo = Topology::paper_layout(45, 1500.0, prop, rng);
  const int n = topo.num_nodes();
  for (int step = 0; step < 20; ++step) {
    const int first = static_cast<int>(rng.uniform_int(0, n));
    const int count = static_cast<int>(rng.uniform_int(0, n - first));
    std::vector<Vec2> moved;
    for (int k = 0; k < count; ++k)
      // Every fourth node lands within the distance floor of node 0.
      moved.push_back(k % 4 == 0
                          ? Vec2{topo.position(0).x + rng.uniform(-1.0, 1.0),
                                 topo.position(0).y}
                          : Vec2{rng.uniform(0.0, 1500.0),
                                 rng.uniform(0.0, 1500.0)});
    topo.set_positions(first, moved);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        ASSERT_EQ(topo.gain(i, j), closed_form_gain(topo, i, j))
            << "step " << step << " pair " << i << "," << j;
        ASSERT_EQ(topo.gain(i, j), topo.gain(j, i))
            << "step " << step << " pair " << i << "," << j;
      }
  }
}

// A batch move and the same nodes moved one at a time must leave the same
// gains bit for bit, equal to a topology built at the final positions, and
// every call must bump version().
TEST(Topology, SetPositionsMatchesSequentialMoves) {
  Rng rng(17);
  auto batched = Topology::paper_layout(40, 2000.0, paper_prop(), rng);
  auto sequential = batched;
  const int n = batched.num_nodes();
  for (int step = 0; step < 25; ++step) {
    // Random blocks, base stations and the empty block included.
    const int first = static_cast<int>(rng.uniform_int(0, n));
    const int count = static_cast<int>(rng.uniform_int(0, n - first));
    std::vector<Vec2> moved;
    for (int k = 0; k < count; ++k) {
      // Some nodes land on another node's spot (the distance floor).
      moved.push_back(rng.uniform(0.0, 1.0) < 0.1
                          ? batched.position(static_cast<int>(
                                rng.uniform_int(0, n - 1)))
                          : Vec2{rng.uniform(0.0, 2000.0),
                                 rng.uniform(0.0, 2000.0)});
    }
    const std::uint64_t before = batched.version();
    batched.set_positions(first, moved);
    EXPECT_GT(batched.version(), before) << "step " << step;
    for (int k = 0; k < count; ++k) {
      const std::uint64_t v = sequential.version();
      sequential.set_position(first + k, moved[k]);
      EXPECT_GT(sequential.version(), v);
    }

    std::vector<Vec2> bs, users;
    for (int i = 0; i < n; ++i)
      (batched.is_base_station(i) ? bs : users)
          .push_back(batched.position(i));
    const Topology fresh(bs, users, paper_prop());
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        ASSERT_EQ(batched.gain(i, j), sequential.gain(i, j))
            << "step " << step << " pair " << i << "," << j;
        ASSERT_EQ(batched.gain(i, j), fresh.gain(i, j))
            << "step " << step << " pair " << i << "," << j;
      }
  }
  EXPECT_THROW(batched.set_positions(n - 1, std::vector<Vec2>(2)),
               CheckError);
  EXPECT_THROW(batched.set_positions(-1, std::vector<Vec2>(1)), CheckError);
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
