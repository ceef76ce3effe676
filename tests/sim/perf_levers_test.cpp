// Trajectory-level guarantees of the scaling levers (docs/PERFORMANCE.md
// "Scaling past 500 nodes"):
//  * --intra-slot-threads changes wall time only: S1 runs one SF series
//    per interference cluster at every thread count, inline without a
//    pool, so 1, 2 and 4 threads give bit-identical trajectories;
//  * the opt-in LP S4 is deterministic and survives checkpoint/resume: a
//    killed + resumed LP-S4 run replays the uninterrupted run bit for bit
//    (no solver state crosses a slot boundary, so none is checkpointed).
// The structural exactness arguments (range pruning, the S4 split) are
// tested in tests/core/perf_levers_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/controller.hpp"
#include "obs/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"

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

TEST(PerfLevers, ClusteredRunIsThreadCountInvariant) {
  // Inline cluster jobs (1 thread) and jobs landing on workers in
  // arbitrary order (2, 4) merge by cluster rank, so every thread count
  // must produce the same trajectory. diurnal_solar_tou is where a
  // whole-network SF series and the per-cluster one first diverged (slot
  // 74 of 100).
  const auto diurnal =
      scenario::load_scenario_file(std::string(GC_SCENARIO_EXAMPLES_DIR) +
                                   "/diurnal_solar_tou.json")
          .config;
  const struct {
    const char* name;
    ScenarioConfig cfg;
    int slots;
  } cases[] = {{"paper", ScenarioConfig::paper(), 60},
               {"diurnal_solar_tou", diurnal, 100}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto one = c.cfg.controller_options();
    one.intra_slot_threads = 1;
    const Metrics ref = run_with(c.cfg, c.slots, one);
    for (int threads : {2, 4}) {
      SCOPED_TRACE(threads);
      auto opts = one;
      opts.intra_slot_threads = threads;
      expect_metrics_bit_identical(run_with(c.cfg, c.slots, opts), ref);
    }
  }
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
  std::remove(ckpt.c_str());
}

TEST(PerfLevers, ClusterAndCrossSlotInstrumentsTick) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  // Run through a single-threaded SweepRunner so the counters land in a
  // private registry (same reasoning as the checkpoint counter test: the
  // test main thread's instrument refs cannot be re-pointed).
  auto copts = lp_s4_options(ScenarioConfig::tiny());
  copts.intra_slot_threads = 2;
  SimJob job;
  job.scenario = ScenarioConfig::tiny();
  job.V = 3.0;
  job.slots = 40;
  job.controller = copts;

  obs::Registry reg;
  SweepOptions opt;
  opt.threads = 1;
  opt.merge_into = &reg;
  SweepRunner(opt).run({job});

  // Clustered S1 must have decomposed something.
  EXPECT_GT(reg.counter("sched.sf_clusters").total(), 0.0);
}

}  // namespace
}  // namespace gc::sim
