#include "core/state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "queueing/queues.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace gc::core {
namespace {

class StateTest : public ::testing::Test {
 protected:
  StateTest() : model_(sim::ScenarioConfig::tiny().build()), state_(model_, 2.0) {}

  SlotDecision empty_decision() const {
    SlotDecision d;
    d.admissions.assign(static_cast<std::size_t>(model_.num_sessions()), {});
    d.energy.assign(static_cast<std::size_t>(model_.num_nodes()), {});
    return d;
  }

  NetworkModel model_;
  NetworkState state_;
};

TEST_F(StateTest, StartsAtConfiguredInitialState) {
  for (int i = 0; i < model_.num_nodes(); ++i) {
    // Queues start at zero (Section IV-B); batteries at their configured
    // initial level (base stations empty, users half charged).
    EXPECT_DOUBLE_EQ(state_.battery_j(i),
                     model_.node(i).battery.initial_level_j);
    for (int s = 0; s < model_.num_sessions(); ++s)
      EXPECT_DOUBLE_EQ(state_.q(i, s), 0.0);
  }
  EXPECT_EQ(state_.slot(), 0);
}

TEST_F(StateTest, AdmissionFillsSourceQueue) {
  auto d = empty_decision();
  d.admissions[0] = {1, 40.0};  // 40 packets admitted at BS 1
  state_.advance(d);
  EXPECT_DOUBLE_EQ(state_.q(1, 0), 40.0);
  EXPECT_DOUBLE_EQ(state_.q(0, 0), 0.0);
  EXPECT_EQ(state_.slot(), 1);
}

TEST_F(StateTest, RoutingMovesBacklogPerEq15) {
  state_.set_q(0, 0, 50.0);
  auto d = empty_decision();
  d.routes.push_back({0, 3, 0, 20.0});
  state_.advance(d);
  EXPECT_DOUBLE_EQ(state_.q(0, 0), 30.0);
  EXPECT_DOUBLE_EQ(state_.q(3, 0), 20.0);
}

TEST_F(StateTest, OverServiceClipsAtZeroNullPackets) {
  // Law (15) permits serving more than the backlog (null packets): the
  // sender clips at zero while the receiver still counts the arrivals.
  state_.set_q(0, 0, 5.0);
  auto d = empty_decision();
  d.routes.push_back({0, 3, 0, 20.0});
  state_.advance(d);
  EXPECT_DOUBLE_EQ(state_.q(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(state_.q(3, 0), 20.0);
}

TEST_F(StateTest, DestinationKeepsNoQueue) {
  const int dest = model_.session(0).destination;
  auto d = empty_decision();
  d.routes.push_back({0, dest, 0, 15.0});
  state_.advance(d);
  EXPECT_DOUBLE_EQ(state_.q(dest, 0), 0.0);
}

TEST_F(StateTest, VirtualQueueLawEq28) {
  auto d = empty_decision();
  d.routes.push_back({0, 3, 0, 12.0});
  state_.advance(d);
  EXPECT_DOUBLE_EQ(state_.g_queue(0, 3), 12.0);
  EXPECT_DOUBLE_EQ(state_.h(0, 3), model_.beta() * 12.0);

  // Scheduled capacity drains it even with no new arrivals.
  auto d2 = empty_decision();
  ScheduledLink sl;
  sl.tx = 0;
  sl.rx = 3;
  sl.band = 0;
  sl.capacity_packets = 5.0;
  d2.schedule.push_back(sl);
  state_.advance(d2);
  EXPECT_DOUBLE_EQ(state_.g_queue(0, 3), 7.0);
}

TEST_F(StateTest, BatteryAdvancesWithChargeAndZTracks) {
  auto d = empty_decision();
  d.energy[0].charge_renewable_j = 100.0;
  state_.advance(d);
  EXPECT_DOUBLE_EQ(state_.battery_j(0), 100.0);
  EXPECT_DOUBLE_EQ(state_.z(0), 100.0 - model_.shift_j(0, 2.0));
}

TEST_F(StateTest, ChargeAndDischargeTogetherThrows) {
  auto d = empty_decision();
  d.energy[0].charge_grid_j = 10.0;
  d.energy[0].discharge_j = 10.0;
  EXPECT_THROW(state_.advance(d), CheckError);
}

TEST_F(StateTest, HeadroomsMirrorBattery) {
  state_.set_battery_j(0, 1000.0);
  const auto& b = model_.node(0).battery;
  EXPECT_DOUBLE_EQ(state_.charge_headroom_j(0),
                   std::min(b.max_charge_j, b.capacity_j - 1000.0));
  EXPECT_DOUBLE_EQ(state_.discharge_headroom_j(0),
                   std::min(b.max_discharge_j, 1000.0));
}

TEST_F(StateTest, TotalsSplitByNodeKind) {
  for (int i = 0; i < model_.num_nodes(); ++i) state_.set_battery_j(i, 0.0);
  state_.set_q(0, 0, 10.0);   // BS
  state_.set_q(4, 1, 5.0);    // user
  state_.set_battery_j(1, 500.0);
  state_.set_battery_j(5, 50.0);
  EXPECT_DOUBLE_EQ(state_.total_data_queue_bs(), 10.0);
  EXPECT_DOUBLE_EQ(state_.total_data_queue_users(), 5.0);
  EXPECT_DOUBLE_EQ(state_.total_battery_bs_j(), 500.0);
  EXPECT_DOUBLE_EQ(state_.total_battery_users_j(), 50.0);
}

TEST_F(StateTest, SetQOnDestinationIsMaskedByAccessor) {
  const int dest = model_.session(1).destination;
  state_.set_q(dest, 1, 9.0);
  EXPECT_DOUBLE_EQ(state_.q(dest, 1), 0.0);
}

TEST_F(StateTest, MultipleRoutesAggregatePerQueue) {
  state_.set_q(0, 0, 100.0);
  state_.set_q(0, 1, 100.0);
  auto d = empty_decision();
  d.routes.push_back({0, 3, 0, 10.0});
  d.routes.push_back({0, 4, 0, 15.0});
  d.routes.push_back({0, 3, 1, 5.0});
  state_.advance(d);
  EXPECT_DOUBLE_EQ(state_.q(0, 0), 75.0);
  EXPECT_DOUBLE_EQ(state_.q(0, 1), 95.0);
  EXPECT_DOUBLE_EQ(state_.q(3, 0), 10.0);
  EXPECT_DOUBLE_EQ(state_.q(4, 0), 15.0);
  EXPECT_DOUBLE_EQ(state_.g_queue(0, 3), 15.0);
}

// Law (28) as a dense sweep over every ordered pair i != j: service and
// arrivals summed per link into n x n tables (schedule order, route order),
// then one queue step per pair, sanitized like NetworkState does. Kept as
// the oracle for advance(), which only steps the links a decision names.
std::vector<double> dense_law_28(const std::vector<double>& g, int n,
                                 const SlotDecision& d, bool sanitize) {
  std::vector<double> service(g.size(), 0.0), arrivals(g.size(), 0.0);
  for (const auto& sl : d.schedule)
    service[static_cast<std::size_t>(sl.tx) * n + sl.rx] += sl.capacity_packets;
  for (const auto& r : d.routes)
    arrivals[static_cast<std::size_t>(r.tx) * n + r.rx] += r.packets;
  std::vector<double> out = g;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const std::size_t l = static_cast<std::size_t>(i) * n + j;
      double v = queueing::queue_step(g[l], service[l], arrivals[l]);
      if (sanitize && (std::isnan(v) || v < 0.0)) v = 0.0;
      out[l] = v;
    }
  return out;
}

std::vector<double> read_g(const NetworkState& state, int n) {
  std::vector<double> g(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      g[static_cast<std::size_t>(i) * n + j] = state.g_queue(i, j);
  return g;
}

// Seeded decisions over a paper-sized model: pairs scheduled on several
// bands, several routes per link, routes over unscheduled links,
// zero-capacity links, fractional capacities and packets (so a change of
// summation order shows), self pairs (which law (28) never touches),
// sanitize on and off, and -0.0 written through set_g_queue. G must match
// the dense law byte for byte after every slot.
TEST(NetworkState, SparseAdvanceMatchesDenseLaw) {
  const NetworkModel model = sim::ScenarioConfig::paper().build();
  NetworkState state(model, 2.0);
  const int n = model.num_nodes();
  const int S = model.num_sessions();
  Rng rng(2828);
  const auto node = [&] { return static_cast<int>(rng.uniform_int(0, n - 1)); };
  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const bool sanitize = step % 2 == 1;
    state.set_sanitize(sanitize);
    if (step % 5 == 0) {
      // -0.0 on a random pair (often one the decision below leaves alone).
      int i = node(), j = node();
      if (i == j) j = (i + 1) % n;
      state.set_g_queue(i, j, -0.0);
    }
    SlotDecision d;
    d.admissions.assign(static_cast<std::size_t>(S), {});
    d.energy.assign(static_cast<std::size_t>(n), {});
    const int links = static_cast<int>(rng.uniform_int(0, 12));
    for (int k = 0; k < links; ++k) {
      ScheduledLink sl;
      sl.tx = node();
      sl.rx = rng.uniform01() < 0.05 ? sl.tx : node();
      sl.band = static_cast<int>(rng.uniform_int(0, model.num_bands() - 1));
      const double u = rng.uniform01();
      sl.capacity_packets = u < 0.2    ? 0.0
                            : u < 0.4  ? rng.uniform(0.0, 3.0)
                                       : std::floor(rng.uniform(0.0, 40.0));
      d.schedule.push_back(sl);
      while (rng.uniform01() < 0.4) {  // the same pair on other bands
        sl.band = (sl.band + 1) % model.num_bands();
        sl.capacity_packets = rng.uniform(0.0, 25.0);
        d.schedule.push_back(sl);
      }
    }
    const int routes = static_cast<int>(rng.uniform_int(0, 15));
    for (int k = 0; k < routes; ++k) {
      RouteDecision r;
      if (!d.schedule.empty() && rng.uniform01() < 0.5) {
        const auto& sl = d.schedule[static_cast<std::size_t>(
            rng.uniform_int(
                0, static_cast<std::int64_t>(d.schedule.size()) - 1))];
        r.tx = sl.tx;
        r.rx = sl.rx;
      } else {  // a link nothing scheduled
        r.tx = node();
        r.rx = rng.uniform01() < 0.05 ? r.tx : node();
      }
      r.session = static_cast<int>(rng.uniform_int(0, S - 1));
      // Fractional packets too, so the summation order shows in the bits.
      const double u = rng.uniform01();
      r.packets = u < 0.2   ? 0.0
                  : u < 0.5 ? rng.uniform(0.0, 30.0)
                            : std::floor(rng.uniform(0.0, 30.0));
      d.routes.push_back(r);
    }
    {
      // A backlogged link served on several bands and routed over several
      // times, all with fractional amounts: three or more terms per sum,
      // so a different summation order changes the bits of G.
      int tx = node(), rx = node();
      if (tx == rx) rx = (tx + 1) % n;
      state.set_g_queue(tx, rx, rng.uniform(500.0, 1000.0));
      for (int k = 0; k < 4; ++k) {
        ScheduledLink sl;
        sl.tx = tx;
        sl.rx = rx;
        sl.band = k % model.num_bands();
        sl.capacity_packets = rng.uniform(0.0, 40.0);
        d.schedule.push_back(sl);
        d.routes.push_back(
            {tx, rx, static_cast<int>(rng.uniform_int(0, S - 1)),
             rng.uniform(0.0, 30.0)});
      }
    }
    const std::vector<double> expect =
        dense_law_28(read_g(state, n), n, d, sanitize);
    state.advance(d);
    const std::vector<double> got = read_g(state, n);
    ASSERT_EQ(std::memcmp(got.data(), expect.data(),
                          got.size() * sizeof(double)),
              0);
  }
  EXPECT_GT(state.total_virtual_queue(), 0.0);
}

}  // namespace
}  // namespace gc::core
