#include "core/router.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/scenario.hpp"

namespace gc::core {
namespace {

class RouterTest : public ::testing::Test {
 protected:
  RouterTest()
      : model_(sim::ScenarioConfig::tiny().build()), state_(model_, 1.0) {
    admissions_.assign(static_cast<std::size_t>(model_.num_sessions()), {});
    admissions_[0].source_bs = 0;
    admissions_[1].source_bs = 1;
  }

  ScheduledLink link(int tx, int rx, double cap) const {
    ScheduledLink s;
    s.tx = tx;
    s.rx = rx;
    s.band = 0;
    s.capacity_packets = cap;
    return s;
  }

  NetworkModel model_;
  NetworkState state_;
  std::vector<AdmissionDecision> admissions_;
};

TEST_F(RouterTest, EmptyScheduleRoutesNothing) {
  const auto r = greedy_route(state_, {}, admissions_);
  EXPECT_TRUE(r.routes.empty());
  for (int s = 0; s < model_.num_sessions(); ++s)
    EXPECT_DOUBLE_EQ(r.demand_shortfall[s],
                     model_.session(s).demand_packets);
}

TEST_F(RouterTest, DestinationDemandServedFirst) {
  const int dest = model_.session(0).destination;
  const std::vector<ScheduledLink> sched = {link(0, dest, 100.0)};
  const auto r = greedy_route(state_, sched, admissions_);
  ASSERT_FALSE(r.routes.empty());
  double delivered = 0.0;
  for (const auto& rt : r.routes)
    if (rt.rx == dest && rt.session == 0) delivered += rt.packets;
  EXPECT_DOUBLE_EQ(delivered, model_.session(0).demand_packets);
  EXPECT_DOUBLE_EQ(r.demand_shortfall[0], 0.0);
}

TEST_F(RouterTest, DemandCappedByCapacityWithShortfall) {
  const int dest = model_.session(0).destination;
  const std::vector<ScheduledLink> sched = {link(0, dest, 1.0)};
  const auto r = greedy_route(state_, sched, admissions_);
  EXPECT_DOUBLE_EQ(r.demand_shortfall[0],
                   model_.session(0).demand_packets - 1.0);
}

TEST_F(RouterTest, DemandSpillsAcrossIncomingLinks) {
  const int dest = model_.session(0).destination;
  // Two incoming links, each too small alone.
  const std::vector<ScheduledLink> sched = {link(0, dest, 40.0),
                                            link(1, dest, 40.0)};
  const auto r = greedy_route(state_, sched, admissions_);
  EXPECT_DOUBLE_EQ(r.demand_shortfall[0], 0.0);  // 60 <= 40 + 40
}

TEST_F(RouterTest, DemandPrefersSmallestCoefficientLink) {
  const int dest = model_.session(0).destination;
  // Make link (1, dest) cheaper: big backlog at node 1 for session 0.
  state_.set_q(0, 0, 0.0);
  state_.set_q(1, 0, 500.0);
  const std::vector<ScheduledLink> sched = {link(0, dest, 100.0),
                                            link(1, dest, 100.0)};
  const auto r = greedy_route(state_, sched, admissions_);
  double via1 = 0.0;
  for (const auto& rt : r.routes)
    if (rt.tx == 1 && rt.session == 0) via1 += rt.packets;
  EXPECT_DOUBLE_EQ(via1, model_.session(0).demand_packets);
}

TEST_F(RouterTest, RelayLinkCarriesMostNegativeCoefficientSession) {
  // Node 2 holds a big backlog for session 0; link 2->3 should move it.
  state_.set_q(2, 0, 300.0);
  state_.set_q(2, 1, 10.0);
  const std::vector<ScheduledLink> sched = {link(2, 3, 25.0)};
  const auto r = greedy_route(state_, sched, admissions_);
  ASSERT_EQ(r.routes.size(), 1u);
  EXPECT_EQ(r.routes[0].session, 0);
  EXPECT_DOUBLE_EQ(r.routes[0].packets, 25.0);  // full capacity (25)
}

TEST_F(RouterTest, NonNegativeCoefficientRoutesNothing) {
  // All queues zero: coefficient = beta*H >= 0, so the relay link idles.
  const std::vector<ScheduledLink> sched = {link(2, 3, 25.0)};
  const auto r = greedy_route(state_, sched, admissions_);
  EXPECT_TRUE(r.routes.empty());
}

TEST_F(RouterTest, VirtualQueuePenaltyDiscouragesCongestedLink) {
  // Differential backlog favors 2->3, but a huge H on that link flips the
  // coefficient positive.
  state_.set_q(2, 0, 50.0);
  state_.set_g_queue(2, 3, 1e9);
  const std::vector<ScheduledLink> sched = {link(2, 3, 25.0)};
  const auto r = greedy_route(state_, sched, admissions_);
  EXPECT_TRUE(r.routes.empty());
}

TEST_F(RouterTest, NoTrafficIntoSourceConstraint16) {
  // Link into the source BS of session 0 must not carry session 0 even with
  // a strongly negative coefficient.
  state_.set_q(2, 0, 1000.0);
  admissions_[0].source_bs = 0;
  const std::vector<ScheduledLink> sched = {link(2, 0, 25.0)};
  const auto r = greedy_route(state_, sched, admissions_);
  for (const auto& rt : r.routes) EXPECT_NE(rt.session, 0);
}

TEST_F(RouterTest, DestinationDoesNotForwardConstraint17) {
  const int dest = model_.session(0).destination;
  state_.set_q(dest, 0, 1000.0);  // masked to 0 by the accessor anyway
  const std::vector<ScheduledLink> sched = {link(dest, 2, 25.0)};
  const auto r = greedy_route(state_, sched, admissions_);
  for (const auto& rt : r.routes) EXPECT_NE(rt.session, 0);
}

TEST_F(RouterTest, CapacityConstraint25Respected) {
  state_.set_q(2, 0, 500.0);
  state_.set_q(2, 1, 500.0);
  const int dest0 = model_.session(0).destination;
  std::vector<ScheduledLink> sched = {link(2, 3, 30.0), link(0, dest0, 45.0)};
  const auto r = greedy_route(state_, sched, admissions_);
  std::map<std::pair<int, int>, double> load;
  for (const auto& rt : r.routes) load[{rt.tx, rt.rx}] += rt.packets;
  EXPECT_LE((load[{2, 3}]), 30.0 + 1e-9);
  EXPECT_LE((load[{0, dest0}]), 45.0 + 1e-9);
}

TEST_F(RouterTest, GreedyMatchesLpOnSimpleInstance) {
  state_.set_q(2, 0, 200.0);
  const std::vector<ScheduledLink> sched = {link(2, 3, 20.0)};
  const auto g = greedy_route(state_, sched, admissions_);
  const auto l = lp_route(state_, sched, admissions_);
  EXPECT_NEAR(routing_objective(state_, g.routes),
              routing_objective(state_, l.routes), 1e-6);
}

class GreedyVsLp : public ::testing::TestWithParam<int> {};

TEST_P(GreedyVsLp, LpNeverWorseAndDeliveryEqual) {
  auto cfg = sim::ScenarioConfig::tiny();
  cfg.seed = static_cast<std::uint64_t>(GetParam()) + 11;
  const auto model = cfg.build();
  NetworkState state(model, 1.0);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  for (int i = 0; i < model.num_nodes(); ++i)
    for (int s = 0; s < model.num_sessions(); ++s)
      if (rng.bernoulli(0.6))
        state.set_q(i, s, std::floor(rng.uniform(0.0, 300.0)));
  std::vector<AdmissionDecision> adm(
      static_cast<std::size_t>(model.num_sessions()));
  for (int s = 0; s < model.num_sessions(); ++s)
    adm[s].source_bs = static_cast<int>(rng.uniform_int(0, 1));

  // Random conflict-free schedule.
  std::vector<ScheduledLink> sched;
  std::set<int> busy;
  for (int tries = 0; tries < 10; ++tries) {
    const int tx = static_cast<int>(rng.uniform_int(0, model.num_nodes() - 1));
    const int rx = static_cast<int>(rng.uniform_int(0, model.num_nodes() - 1));
    if (tx == rx || busy.count(tx) || busy.count(rx)) continue;
    busy.insert(tx);
    busy.insert(rx);
    ScheduledLink s;
    s.tx = tx;
    s.rx = rx;
    s.band = 0;
    s.capacity_packets = std::floor(rng.uniform(5.0, 80.0));
    sched.push_back(s);
  }
  // Positive link queues G on the scheduled links and a sampled v_s(t), so
  // the beta*H term and the destination demand both shape the optimum.
  for (const auto& s : sched)
    state.set_g_queue(s.tx, s.rx, rng.uniform(0.0, 40.0));
  std::vector<double> demand(static_cast<std::size_t>(model.num_sessions()));
  for (double& v : demand) v = std::floor(rng.uniform(0.0, 60.0));

  const auto g = greedy_route(state, sched, adm, &demand);
  const auto l = lp_route(state, sched, adm, {}, nullptr, &demand);
  // Both must deliver the same total into destinations (max possible), and
  // the greedy rule is exact per link, so its objective equals the LP's
  // S3 optimum.
  double short_g = 0.0, short_l = 0.0;
  for (int s = 0; s < model.num_sessions(); ++s) {
    short_g += g.demand_shortfall[s];
    short_l += l.demand_shortfall[s];
  }
  EXPECT_NEAR(short_g, short_l, 1e-6) << "seed " << GetParam();
  EXPECT_NEAR(routing_objective(state, l.routes),
              routing_objective(state, g.routes), 1e-6)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyVsLp, ::testing::Range(0, 200));

}  // namespace
}  // namespace gc::core
