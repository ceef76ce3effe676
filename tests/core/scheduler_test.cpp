#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/scenario.hpp"

namespace gc::core {
namespace {

SlotInputs fixed_inputs(const NetworkModel& model) {
  SlotInputs in;
  in.bandwidth_hz.assign(static_cast<std::size_t>(model.num_bands()), 1e6);
  in.bandwidth_hz[0] = 1e6;
  for (int m = 1; m < model.num_bands(); ++m) in.bandwidth_hz[m] = 1.5e6;
  in.renewable_j.assign(static_cast<std::size_t>(model.num_nodes()), 0.0);
  in.grid_connected.assign(static_cast<std::size_t>(model.num_nodes()), 1);
  return in;
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : model_(sim::ScenarioConfig::tiny().build()),
        state_(model_, 1.0),
        inputs_(fixed_inputs(model_)) {}
  NetworkModel model_;
  NetworkState state_;
  SlotInputs inputs_;
};

TEST_F(SchedulerTest, NoBacklogNoCandidates) {
  EXPECT_TRUE(build_candidates(state_, inputs_).empty());
  EXPECT_TRUE(sf_schedule(state_, inputs_).empty());
}

TEST_F(SchedulerTest, CandidatesRequirePositiveH) {
  state_.set_g_queue(0, 2, 10.0);
  const auto cands = build_candidates(state_, inputs_);
  ASSERT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_EQ(c.tx, 0);
    EXPECT_EQ(c.rx, 2);
    EXPECT_TRUE(model_.spectrum().link_band_ok(c.tx, c.rx, c.band));
    EXPECT_GT(c.weight, 0.0);
  }
}

TEST_F(SchedulerTest, SingleLinkGetsBestBand) {
  state_.set_g_queue(0, 1, 5.0);  // BS -> BS: every band common
  const auto sched = sf_schedule(state_, inputs_);
  ASSERT_EQ(sched.size(), 1u);
  // Random bands have 1.5 MHz > 1 MHz cellular: any of bands 1..2 wins.
  EXPECT_GE(sched[0].band, 1);
  EXPECT_DOUBLE_EQ(sched[0].capacity_bps, 1.5e6);
}

TEST_F(SchedulerTest, SfRespectsSingleRadioConstraint22) {
  // Load every link; whatever SF picks must use each node at most once.
  for (int i = 0; i < model_.num_nodes(); ++i)
    for (int j = 0; j < model_.num_nodes(); ++j)
      if (i != j) state_.set_g_queue(i, j, 1.0 + i + 2 * j);
  const auto sched = sf_schedule(state_, inputs_);
  EXPECT_FALSE(sched.empty());
  std::set<int> used;
  for (const auto& s : sched) {
    EXPECT_TRUE(used.insert(s.tx).second) << "node " << s.tx << " reused";
    EXPECT_TRUE(used.insert(s.rx).second) << "node " << s.rx << " reused";
  }
}

TEST_F(SchedulerTest, GreedyRespectsSingleRadioConstraint22) {
  for (int i = 0; i < model_.num_nodes(); ++i)
    for (int j = 0; j < model_.num_nodes(); ++j)
      if (i != j) state_.set_g_queue(i, j, 1.0 + ((i * 7 + j * 3) % 5));
  const auto sched = greedy_schedule(state_, inputs_);
  std::set<int> used;
  for (const auto& s : sched) {
    EXPECT_TRUE(used.insert(s.tx).second);
    EXPECT_TRUE(used.insert(s.rx).second);
  }
}

TEST_F(SchedulerTest, DisjointLinksAllScheduled) {
  // 0->2, 1->3, 4->5 share no node: all three must be picked.
  state_.set_g_queue(0, 2, 10.0);
  state_.set_g_queue(1, 3, 10.0);
  state_.set_g_queue(4, 5, 10.0);
  const auto sched = sf_schedule(state_, inputs_);
  std::set<std::pair<int, int>> links;
  for (const auto& s : sched) links.insert({s.tx, s.rx});
  EXPECT_EQ(links.size(), 3u);
  EXPECT_TRUE(links.count({0, 2}));
  EXPECT_TRUE(links.count({1, 3}));
  EXPECT_TRUE(links.count({4, 5}));
}

TEST_F(SchedulerTest, ConflictingLinksPickHigherWeight) {
  // Both links need node 0: the heavier virtual queue wins.
  state_.set_g_queue(0, 2, 100.0);
  state_.set_g_queue(3, 0, 1.0);
  const auto sched = sf_schedule(state_, inputs_);
  ASSERT_EQ(sched.size(), 1u);
  EXPECT_EQ(sched[0].tx, 0);
  EXPECT_EQ(sched[0].rx, 2);
}

class SfVsExact : public ::testing::TestWithParam<int> {};

TEST_P(SfVsExact, SfNearExhaustiveOptimum) {
  auto cfg = sim::ScenarioConfig::tiny();
  cfg.num_users = 4;
  cfg.spectrum.num_random_bands = 1;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  const auto model = cfg.build();
  NetworkState state(model, 1.0);
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  // Random sparse backlogs; keep candidate count small enough for the
  // exhaustive solver.
  int loaded = 0;
  for (int i = 0; i < model.num_nodes() && loaded < 6; ++i)
    for (int j = 0; j < model.num_nodes() && loaded < 6; ++j) {
      if (i == j) continue;
      if (rng.bernoulli(0.25)) {
        state.set_g_queue(i, j, rng.uniform(1.0, 50.0));
        ++loaded;
      }
    }
  SlotInputs inputs = fixed_inputs(model);

  const auto sf = sf_schedule(state, inputs);
  const auto exact = exhaustive_schedule(state, inputs);
  const auto greedy = greedy_schedule(state, inputs);
  const double w_sf = schedule_weight(state, sf, inputs);
  const double w_exact = schedule_weight(state, exact, inputs);
  const double w_greedy = schedule_weight(state, greedy, inputs);
  EXPECT_LE(w_sf, w_exact + 1e-9);
  EXPECT_LE(w_greedy, w_exact + 1e-9);
  // SF's LP-rounding is a strong heuristic; on these instances it should
  // stay within a small factor of the optimum (and never below greedy's
  // 1/2-approximation floor by much).
  EXPECT_GE(w_sf, 0.49 * w_exact - 1e-9) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SfVsExact, ::testing::Range(0, 30));

TEST_F(SchedulerTest, AssignPowersFillsCapacityAndPower) {
  state_.set_g_queue(0, 2, 10.0);
  auto sched = sf_schedule(state_, inputs_);
  ASSERT_EQ(sched.size(), 1u);
  assign_powers(model_, inputs_, sched);
  ASSERT_EQ(sched.size(), 1u);
  EXPECT_GT(sched[0].power_w, 0.0);
  EXPECT_LE(sched[0].power_w, model_.node(0).energy.max_tx_power_w);
  EXPECT_DOUBLE_EQ(
      sched[0].capacity_packets,
      std::floor(sched[0].capacity_bps * model_.slot_seconds() /
                 model_.packet_bits()));
}

TEST_F(SchedulerTest, AssignPowersDropsInfeasibleLink) {
  // A user transmitting across the whole area on the cellular band cannot
  // reach the SINR threshold against a co-band interferer at the receiver.
  auto cfg = sim::ScenarioConfig::tiny();
  cfg.user_tx_max_w = 1e-12;  // absurdly small cap forces infeasibility
  const auto model = cfg.build();
  NetworkState state(model, 1.0);
  SlotInputs inputs = fixed_inputs(model);
  std::vector<ScheduledLink> sched;
  ScheduledLink sl;
  sl.tx = 2;  // a user
  sl.rx = 3;
  sl.band = 0;
  sl.capacity_bps = 1e6;
  sched.push_back(sl);
  assign_powers(model, inputs, sched);
  EXPECT_TRUE(sched.empty());
}

TEST_F(SchedulerTest, ScheduleWeightSumsHTimesCapacity) {
  state_.set_g_queue(0, 2, 4.0);
  std::vector<ScheduledLink> sched;
  ScheduledLink sl;
  sl.tx = 0;
  sl.rx = 2;
  sl.band = 0;
  sched.push_back(sl);
  EXPECT_DOUBLE_EQ(schedule_weight(state_, sched, inputs_),
                   state_.h(0, 2) * 1e6);
}

}  // namespace
}  // namespace gc::core
