#include "fault/fault_schedule.hpp"

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "sim/scenario.hpp"
#include "util/check.hpp"

namespace gc::fault {
namespace {

TEST(FaultSchedule, DeterministicWindowCoversExactlyItsSlots) {
  FaultSchedule s(4);
  FaultEvent e;
  e.kind = FaultEvent::Kind::NodeOutage;
  e.node = 2;
  e.start = 10;
  e.duration = 3;
  s.add(e);
  for (int t = 0; t < 20; ++t) {
    const SlotFaults f = s.at(t);
    const bool in_window = t >= 10 && t < 13;
    EXPECT_EQ(f.any(), in_window) << "slot " << t;
    if (in_window) {
      ASSERT_EQ(f.node_down.size(), 4u);
      EXPECT_EQ(f.node_down[2], 1);
      EXPECT_EQ(f.node_down[0], 0);
      EXPECT_EQ(f.active_events, 1);
    }
  }
  // A spec may put a window's end past INT_MAX; start + duration must not
  // overflow.
  FaultSchedule late(4);
  e.start = 2147483000;
  e.duration = 2147483000;
  late.add(e);
  EXPECT_FALSE(late.at(2147482999).any());
  EXPECT_TRUE(late.at(2147483600).any());
}

TEST(FaultSchedule, AtIsPureAndOrderIndependent) {
  FaultSchedule s(5, /*seed=*/99);
  FaultEvent outage;
  outage.kind = FaultEvent::Kind::NodeOutage;
  outage.node = 1;
  outage.probability = 0.2;
  outage.duration = 4;
  s.add(outage);
  FaultEvent spike;
  spike.kind = FaultEvent::Kind::PriceSpike;
  spike.probability = 0.1;
  spike.duration = 2;
  spike.magnitude = 3.0;
  s.add(spike);

  // Forward sweep vs reverse sweep vs repeated queries: identical answers.
  std::vector<int> forward, reverse;
  for (int t = 0; t < 200; ++t) forward.push_back(s.at(t).active_events);
  for (int t = 199; t >= 0; --t) reverse.push_back(s.at(t).active_events);
  for (int t = 0; t < 200; ++t) {
    EXPECT_EQ(forward[t], reverse[199 - t]) << "slot " << t;
    EXPECT_EQ(forward[t], s.at(t).active_events) << "slot " << t;
  }
  // Non-vacuous: the stochastic windows actually fire somewhere.
  int total = 0;
  for (int x : forward) total += x;
  EXPECT_GT(total, 0);
}

TEST(FaultSchedule, StochasticWindowCoversDurationSlots) {
  // With duration d, a window started at u covers [u, u+d): once a start
  // fires, at() must stay active for at least... the started slot; and the
  // window seen at t must equal "some u in (t-d, t] fired".
  FaultSchedule s(2, /*seed=*/7);
  FaultEvent e;
  e.kind = FaultEvent::Kind::GridOutage;
  e.node = -1;
  e.probability = 0.05;
  e.duration = 6;
  s.add(e);

  // Recover the start draws from duration-1 queries of an identical
  // schedule, then check the duration-6 coverage law.
  FaultSchedule starts(2, /*seed=*/7);
  FaultEvent e1 = e;
  e1.duration = 1;
  starts.add(e1);
  for (int t = 0; t < 300; ++t) {
    bool covered = false;
    for (int u = std::max(0, t - 5); u <= t; ++u)
      covered = covered || starts.at(u).any();
    EXPECT_EQ(s.at(t).any(), covered) << "slot " << t;
  }
}

TEST(FaultSchedule, BatteryFadeRampsLinearlyThenHolds) {
  FaultSchedule s(3);
  FaultEvent e;
  e.kind = FaultEvent::Kind::BatteryFade;
  e.node = 0;
  e.start = 10;
  e.duration = 5;
  e.magnitude = 0.5;
  s.add(e);
  EXPECT_TRUE(s.at(9).battery_capacity_fraction.empty());
  EXPECT_DOUBLE_EQ(s.at(10).battery_capacity_fraction[0], 0.9);
  EXPECT_DOUBLE_EQ(s.at(14).battery_capacity_fraction[0], 0.5);
  EXPECT_DOUBLE_EQ(s.at(1000).battery_capacity_fraction[0], 0.5);
  // Other nodes keep full capacity.
  EXPECT_DOUBLE_EQ(s.at(14).battery_capacity_fraction[1], 1.0);
}

TEST(FaultSchedule, JsonSpecParsesEveryKind) {
  const std::string spec = R"({
    "seed": 42,
    "events": [
      {"kind": "node_outage", "node": 3, "start": 100, "duration": 50},
      {"kind": "renewable_blackout", "node": -1, "probability": 0.01,
       "duration": 20},
      {"kind": "grid_outage", "node": 1, "start": 5},
      {"kind": "price_spike", "magnitude": 4.0, "probability": 0.005,
       "duration": 10},
      {"kind": "battery_fade", "node": 0, "start": 0, "duration": 100,
       "magnitude": 0.7},
      {"kind": "link_fade", "node": 0, "peer": 3, "start": 30,
       "duration": 10}
    ]})";
  const FaultSchedule s = FaultSchedule::from_json(spec, /*num_nodes=*/8);
  EXPECT_EQ(s.num_events(), 6);
  EXPECT_EQ(s.seed(), 42u);
  // Slot 5: grid outage on node 1 active, battery fade in progress.
  const SlotFaults f = s.at(5);
  ASSERT_FALSE(f.grid_outage.empty());
  EXPECT_EQ(f.grid_outage[1], 1);
  ASSERT_FALSE(f.battery_capacity_fraction.empty());
  EXPECT_LT(f.battery_capacity_fraction[0], 1.0);
  // Slot 35: the 0->3 link is in a deep fade.
  const SlotFaults g = s.at(35);
  ASSERT_FALSE(g.link_faded.empty());
  EXPECT_EQ(g.link_faded[0 * 8 + 3], 1);
  EXPECT_EQ(g.link_faded[3 * 8 + 0], 0);  // directed
}

TEST(FaultSchedule, JsonRejectsUnknownKindAndUnknownField) {
  EXPECT_THROW(FaultSchedule::from_json(
                   R"({"events":[{"kind":"meteor_strike","start":0}]})", 4),
               CheckError);
  EXPECT_THROW(
      FaultSchedule::from_json(
          R"({"events":[{"kind":"node_outage","node":1,"strat":0}]})", 4),
      CheckError);
  EXPECT_THROW(FaultSchedule::from_json("not json at all", 4), CheckError);
  // A misspelt root key, a non-integer or out-of-range int: each one used
  // to run with a fault silently dropped or truncated. The error names the
  // key path.
  const struct {
    const char* spec;
    const char* path;
  } bad[] = {
      {R"({"seed":3,"evnts":[{"kind":"node_outage","node":0,"start":0,
           "duration":5}]})",
       "unknown key \"evnts\""},
      {R"({"events":[{"kind":"node_outage","node":0.9,"start":0}]})",
       "events[0].node: expected int"},
      {R"({"events":[{"kind":"node_outage","node":0,"start":0,
           "duration":2.7}]})",
       "events[0].duration: expected int"},
      {R"({"events":[{"kind":"node_outage","node":0,"start":1e10}]})",
       "events[0].start: expected int"},
      {R"({"events":[{"kind":"link_fade","node":0,"peer":1.5,"start":0}]})",
       "events[0].peer: expected int"},
      {R"({"seed":0.5})", "seed: expected non-negative int"},
      {R"({"seed":-1})", "seed: expected non-negative int"},
      {R"({"seed":1e300})", "seed: expected non-negative int"},
      {R"({"events":[{"node":1,"start":0}]})", "events[0].kind"},
  };
  for (const auto& c : bad) {
    try {
      FaultSchedule::from_json(c.spec, 4);
      ADD_FAILURE() << "parsed: " << c.spec;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(c.path), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultSchedule, AddValidatesEventParameters) {
  FaultSchedule s(4);
  FaultEvent e;
  e.kind = FaultEvent::Kind::NodeOutage;
  e.node = 7;  // out of range
  e.start = 0;
  EXPECT_THROW(s.add(e), CheckError);
  e.node = 1;
  e.start = -1;
  e.probability = 0.0;  // neither deterministic nor stochastic
  EXPECT_THROW(s.add(e), CheckError);
  e.probability = 1.5;
  EXPECT_THROW(s.add(e), CheckError);
  FaultEvent fade;
  fade.kind = FaultEvent::Kind::BatteryFade;
  fade.node = 0;
  fade.probability = 0.5;  // stochastic fade is not allowed
  fade.magnitude = 0.5;
  EXPECT_THROW(s.add(fade), CheckError);
  FaultEvent link;
  link.kind = FaultEvent::Kind::LinkFade;
  link.node = 2;
  link.peer = 2;  // self-link
  link.start = 0;
  EXPECT_THROW(s.add(link), CheckError);
}

TEST(ApplySlotFaults, RewritesInputsAndFadesBatteries) {
  const auto cfg = sim::ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  core::NetworkState& state = controller.mutable_state();
  Rng rng(7);
  core::SlotInputs inputs = model.sample_inputs(0, rng);
  const double cap0 = state.battery_capacity_j(0);

  FaultSchedule s(model.num_nodes(), 1);
  FaultEvent outage;
  outage.kind = FaultEvent::Kind::NodeOutage;
  outage.node = 1;
  outage.start = 0;
  s.add(outage);
  FaultEvent blackout;
  blackout.kind = FaultEvent::Kind::RenewableBlackout;
  blackout.node = -1;
  blackout.start = 0;
  s.add(blackout);
  FaultEvent spike;
  spike.kind = FaultEvent::Kind::PriceSpike;
  spike.start = 0;
  spike.magnitude = 2.5;
  s.add(spike);
  FaultEvent fade;
  fade.kind = FaultEvent::Kind::BatteryFade;
  fade.node = 0;
  fade.start = 0;
  fade.duration = 1;
  fade.magnitude = 0.25;
  s.add(fade);

  const SlotFaults f = s.at(0);
  EXPECT_EQ(f.active_events, 4);
  apply_slot_faults(f, inputs, state);

  EXPECT_TRUE(inputs.node_is_down(1));
  EXPECT_FALSE(inputs.node_is_down(0));
  for (double r : inputs.renewable_j) EXPECT_EQ(r, 0.0);
  EXPECT_DOUBLE_EQ(inputs.cost_multiplier, 2.5);
  EXPECT_DOUBLE_EQ(state.battery_capacity_j(0), 0.25 * cap0);
  // Levels above the faded capacity were clipped to it.
  EXPECT_LE(state.battery_j(0), state.battery_capacity_j(0));

  // Re-applying the same slot's faults is idempotent (the fade already
  // happened; no further joules are lost).
  Rng rng2(7);
  core::SlotInputs inputs2 = model.sample_inputs(0, rng2);
  apply_slot_faults(f, inputs2, state);
  EXPECT_DOUBLE_EQ(state.battery_capacity_j(0), 0.25 * cap0);
}

}  // namespace
}  // namespace gc::fault
