// Trajectory-level guarantees of the scaling levers (docs/PERFORMANCE.md
// "Scaling past 500 nodes"): the opt-in LP S4 is deterministic and
// survives checkpoint/resume: a killed + resumed LP-S4 run replays the
// uninterrupted run bit for bit (no solver state crosses a slot boundary,
// so none is checkpointed), and S1's cluster split ticks its instruments.
// The structural exactness arguments (range pruning, the S4 split) are
// tested in tests/core/perf_levers_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/controller.hpp"
#include "obs/registry.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

#include "metrics_testutil.hpp"

namespace gc::sim {
namespace {

std::string tmp_path(const char* name) {
  return testing::TempDir() + "gc_perf_levers_test_" + name;
}

Metrics run_with(const ScenarioConfig& cfg, int slots,
                 const core::ControllerOptions& copts) {
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, copts);
  return run_simulation(model, controller, slots, {});
}

// The options of a run whose S4 is the opt-in LP energy manager.
core::ControllerOptions lp_s4_options(const ScenarioConfig& cfg) {
  auto opts = cfg.controller_options();
  opts.energy_manager = core::ControllerOptions::EnergyManager::Lp;
  return opts;
}

TEST(PerfLevers, LpS4RunIsBitReproducible) {
  const auto cfg = ScenarioConfig::tiny();
  const Metrics a = run_with(cfg, 80, lp_s4_options(cfg));
  const Metrics b = run_with(cfg, 80, lp_s4_options(cfg));
  expect_metrics_bit_identical(a, b);
}

TEST(PerfLevers, LpS4KillAndResumeIsBitIdentical) {
  // Every slot's S4 LP starts from its own slack crash basis, so a resumed
  // run needs no solver state from the slots before the kill to replay
  // the uninterrupted one.
  const auto cfg = ScenarioConfig::tiny();
  const auto lp_s4 = lp_s4_options(cfg);
  const int horizon = 80, kill_at = 33;
  const std::string ckpt = tmp_path("lp_s4.ckpt");

  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0, lp_s4);
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, {});

  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, lp_s4);
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    run_simulation(model, ctrl, kill_at, opts);
  }

  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, lp_s4);
  SimOptions opts;
  opts.resume_path = ckpt;
  const Metrics resumed = run_simulation(model, ctrl, horizon, opts);
  expect_metrics_bit_identical(resumed, ref);
  remove_generations(ckpt);
}

TEST(PerfLevers, ClusterAndCrossSlotInstrumentsTick) {
  SimJob job;
  job.scenario = ScenarioConfig::tiny();
  job.V = 3.0;
  job.slots = 40;
  job.controller = lp_s4_options(ScenarioConfig::tiny());

  // The run counts into the process registry; the delta is this run's.
  const obs::Counter& clusters = obs::registry().counter("sched.sf_clusters");
  const double before = clusters.total();
  run_job(job);

  // Clustered S1 must have decomposed something.
  EXPECT_GT(clusters.total() - before, 0.0);
}

}  // namespace
}  // namespace gc::sim
