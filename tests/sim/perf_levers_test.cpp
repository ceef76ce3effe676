// Trajectory-level guarantees of the scaling levers (docs/PERFORMANCE.md
// "Scaling past 500 nodes"):
//  * --intra-slot-threads changes wall time only: S1 runs one SF series
//    per interference cluster at every thread count, inline without a
//    pool, so 1, 2 and 4 threads give bit-identical trajectories;
//  * the opt-in LP S4's cross-slot warm starts are deterministic and
//    survive checkpoint/resume: a killed + resumed warm run replays the
//    uninterrupted run bit for bit (checkpoint v4+ carries the solver
//    states).
// The structural exactness arguments (range pruning, the S4 split) are
// tested in tests/core/perf_levers_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/controller.hpp"
#include "obs/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/checkpoint.hpp"
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

// The options of a warm run: the cross-slot chain lives in the opt-in LP
// energy manager's S4 solves.
core::ControllerOptions warm_lp_options(const ScenarioConfig& cfg) {
  auto opts = cfg.controller_options();
  opts.warm_across_slots = true;
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

TEST(PerfLevers, WarmAcrossSlotsRunIsBitReproducible) {
  const auto cfg = ScenarioConfig::tiny();
  const Metrics a = run_with(cfg, 80, warm_lp_options(cfg));
  const Metrics b = run_with(cfg, 80, warm_lp_options(cfg));
  expect_metrics_bit_identical(a, b);
}

TEST(PerfLevers, WarmKillAndResumeIsBitIdentical) {
  // The cross-slot warm chain makes slot t's S4 LP depend on solver state
  // from slot t-1, so resume equality requires the checkpoint to carry
  // that state (v4) and the controller to re-import it — cold-starting the
  // chain on resume could diverge. This is the serialized-basis contract
  // docs/ROBUSTNESS.md pins.
  const auto cfg = ScenarioConfig::tiny();
  const auto warm = warm_lp_options(cfg);
  const int horizon = 80, kill_at = 33;
  const std::string ckpt = tmp_path("warm.ckpt");

  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0, warm);
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, {});

  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, warm);
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    run_simulation(model, ctrl, kill_at, opts);
  }
  EXPECT_TRUE(load_checkpoint(ckpt).has_warm);

  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, warm);
  SimOptions opts;
  opts.resume_path = ckpt;
  const Metrics resumed = run_simulation(model, ctrl, horizon, opts);
  expect_metrics_bit_identical(resumed, ref);
  std::remove(ckpt.c_str());
}

TEST(PerfLevers, OldCheckpointS1HintsAreDropped) {
  // Files written before S1 stopped carrying state across slots may hold
  // non-empty S1 hints. Resuming from one reads and drops them: the run
  // replays the uninterrupted one bit for bit.
  const auto cfg = ScenarioConfig::tiny();
  const auto warm = warm_lp_options(cfg);
  const int horizon = 40, kill_at = 20;
  const std::string ckpt = tmp_path("old_s1.ckpt");

  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0, warm);
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, {});

  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, warm);
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    run_simulation(model, ctrl, kill_at, opts);
  }
  Checkpoint old = load_checkpoint(ckpt);
  ASSERT_TRUE(old.has_warm);
  old.warm.s1_states = {0, 1, 2, 1};
  old.warm.s1_keys = {0x0000010000020001ull, 7};
  save_checkpoint(old, ckpt);

  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, warm);
  SimOptions opts;
  opts.resume_path = ckpt;
  expect_metrics_bit_identical(run_simulation(model, ctrl, horizon, opts),
                               ref);
  std::remove(ckpt.c_str());
}

TEST(PerfLevers, CheckpointRoundTripsWarmCarry) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, warm_lp_options(cfg));
  SimOptions opts;
  Metrics m = run_simulation(model, ctrl, 20, opts);
  Rng rng(opts.input_seed);

  const Checkpoint a = make_checkpoint(20, rng, ctrl, m, nullptr, nullptr);
  ASSERT_TRUE(a.has_warm);
  EXPECT_FALSE(a.warm.s4_states.empty());  // S4 solves every slot
  EXPECT_TRUE(a.warm.s1_states.empty());   // S1 carries nothing
  EXPECT_TRUE(a.warm.s1_keys.empty());

  const std::string path = tmp_path("carry.ckpt");
  save_checkpoint(a, path);
  const Checkpoint b = load_checkpoint(path);
  ASSERT_TRUE(b.has_warm);
  EXPECT_EQ(b.warm.s1_states, a.warm.s1_states);
  EXPECT_EQ(b.warm.s1_keys, a.warm.s1_keys);
  EXPECT_EQ(b.warm.s4_states, a.warm.s4_states);
  std::remove(path.c_str());

  // Without the lever the carry section stays empty (and a resume from
  // such a checkpoint cold-starts the chain, matching the run it saved).
  core::LyapunovController cold(model, 3.0, cfg.controller_options());
  Metrics m2 = run_simulation(model, cold, 5, opts);
  Rng rng2(opts.input_seed);
  EXPECT_FALSE(make_checkpoint(5, rng2, cold, m2, nullptr, nullptr).has_warm);
}

TEST(PerfLevers, ClusterAndCrossSlotInstrumentsTick) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  // Run through a single-threaded SweepRunner so the counters land in a
  // private registry (same reasoning as the checkpoint counter test: the
  // test main thread's instrument refs cannot be re-pointed).
  auto copts = warm_lp_options(ScenarioConfig::tiny());
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

  // Clustered S1 must have decomposed something, and the S4 warm chain
  // must have both attempted and accepted cross-slot hints (its variable
  // layout is fixed, so acceptance is structural, not lucky).
  EXPECT_GT(reg.counter("sched.sf_clusters").total(), 0.0);
  EXPECT_GT(reg.counter("lp.warmstart_cross_slot_attempted").total(), 0.0);
  EXPECT_GT(reg.counter("lp.warmstart_cross_slot_accepted").total(), 0.0);
}

}  // namespace
}  // namespace gc::sim
