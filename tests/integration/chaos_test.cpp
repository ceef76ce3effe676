// Chaos test (ISSUE 2 acceptance): the paper scenario runs >= 2000 slots
// with every fault type firing and a deliberately starved LP watchdog, and
// must survive — no crash, finite queues, the fallback ladder and fault
// injection both demonstrably active.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/controller.hpp"
#include "fault/fault_schedule.hpp"
#include "obs/registry.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

#include "../sim/metrics_testutil.hpp"

namespace gc {
namespace {

// Every fault kind, mixing deterministic windows with stochastic ones.
fault::FaultSchedule chaos_schedule(int num_nodes, std::uint64_t seed) {
  fault::FaultSchedule s(num_nodes, seed);
  fault::FaultEvent e;

  e.kind = fault::FaultEvent::Kind::NodeOutage;  // a relay user dies
  e.node = num_nodes - 1;
  e.probability = 0.01;
  e.duration = 25;
  s.add(e);

  e = {};
  e.kind = fault::FaultEvent::Kind::NodeOutage;  // a base station dies
  e.node = 0;
  e.start = 300;
  e.duration = 40;
  s.add(e);

  e = {};
  e.kind = fault::FaultEvent::Kind::RenewableBlackout;  // global cloud cover
  e.node = -1;
  e.probability = 0.004;
  e.duration = 60;
  s.add(e);

  e = {};
  e.kind = fault::FaultEvent::Kind::GridOutage;  // grid-wide outage
  e.node = -1;
  e.probability = 0.002;
  e.duration = 15;
  s.add(e);

  e = {};
  e.kind = fault::FaultEvent::Kind::PriceSpike;
  e.probability = 0.01;
  e.duration = 10;
  e.magnitude = 5.0;
  s.add(e);

  e = {};
  e.kind = fault::FaultEvent::Kind::BatteryFade;  // BS 1 battery ages
  e.node = 1;
  e.start = 500;
  e.duration = 800;
  e.magnitude = 0.4;
  s.add(e);

  e = {};
  e.kind = fault::FaultEvent::Kind::LinkFade;  // BS0 -> BS1 deep fade
  e.node = 0;
  e.peer = 1;
  e.probability = 0.02;
  e.duration = 12;
  s.add(e);

  return s;
}

TEST(Chaos, PaperScenarioSurvives2000SlotsOfEveryFaultType) {
  const auto cfg = sim::ScenarioConfig::paper();
  const auto model = cfg.build();
  auto opts = cfg.controller_options();
  // Starve the watchdog so the LP-based solvers keep hitting
  // IterationLimit and the ladder has to carry the run.
  opts.lp.max_iterations = 60;
  opts.energy_manager = core::ControllerOptions::EnergyManager::Lp;
  opts.router = core::ControllerOptions::Router::Lp;
  core::LyapunovController controller(model, 3.0, opts);

  const fault::FaultSchedule faults =
      chaos_schedule(model.num_nodes(), /*seed=*/2024);
  sim::SimOptions sim_opts;
  sim_opts.faults = &faults;

  const double fault_events_before =
      obs::registry().counter("fault.active_events").total();
  const double fallbacks_before =
      obs::registry().counter("ctrl.fallback_s1").total() +
      obs::registry().counter("ctrl.fallback_s3").total() +
      obs::registry().counter("ctrl.fallback_s4").total();
  const double degraded_before =
      obs::registry().counter("ctrl.degraded_slots").total();

  const sim::Metrics m = run_simulation(model, controller, 2000, sim_opts);

  ASSERT_EQ(m.slots, 2000);
  for (int t = 0; t < m.slots; ++t) {
    ASSERT_TRUE(std::isfinite(m.q_bs[t]) && std::isfinite(m.q_users[t]))
        << "backlog not finite at slot " << t;
    ASSERT_TRUE(std::isfinite(m.cost[t]) && std::isfinite(m.grid_j[t]))
        << "energy series not finite at slot " << t;
    ASSERT_TRUE(std::isfinite(m.battery_bs_j[t]) &&
                std::isfinite(m.battery_users_j[t]))
        << "battery series not finite at slot " << t;
    ASSERT_GE(m.q_bs[t], 0.0);
    ASSERT_GE(m.q_users[t], 0.0);
  }
  EXPECT_TRUE(std::isfinite(m.q_total_stability.sup_partial_average()));
  EXPECT_TRUE(std::isfinite(m.h_total_stability.sup_partial_average()));

  // The run was genuinely chaotic: faults landed and the ladder fired.
  EXPECT_GT(obs::registry().counter("fault.active_events").total(),
            fault_events_before);
  EXPECT_GT(obs::registry().counter("ctrl.fallback_s1").total() +
                obs::registry().counter("ctrl.fallback_s3").total() +
                obs::registry().counter("ctrl.fallback_s4").total(),
            fallbacks_before);
  EXPECT_GT(obs::registry().counter("ctrl.degraded_slots").total(),
            degraded_before);
}

TEST(Chaos, FaultedRunResumesBitIdentically) {
  // Checkpoint/resume equality must hold under fault injection too — the
  // fault overlay is a pure function of the slot, so a resumed run sees
  // the exact same faults (docs/ROBUSTNESS.md).
  const auto cfg = sim::ScenarioConfig::tiny();
  const auto model = cfg.build();
  const fault::FaultSchedule faults =
      chaos_schedule(model.num_nodes(), /*seed=*/55);
  const std::string ckpt = testing::TempDir() + "gc_chaos_resume.ckpt";
  const int horizon = 120, kill_at = 47;

  sim::SimOptions base;
  base.faults = &faults;

  core::LyapunovController ref_ctrl(model, 3.0, cfg.controller_options());
  const sim::Metrics ref = run_simulation(model, ref_ctrl, horizon, base);

  {
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    sim::SimOptions opts = base;
    opts.checkpoint_path = ckpt;
    run_simulation(model, ctrl, kill_at, opts);
  }
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  sim::SimOptions opts = base;
  opts.resume_path = ckpt;
  const sim::Metrics resumed = run_simulation(model, ctrl, horizon, opts);

  sim::expect_metrics_bit_identical(resumed, ref);
  sim::remove_generations(ckpt);
}

}  // namespace
}  // namespace gc
