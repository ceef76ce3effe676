// Trajectory-level guarantees of the scaling levers (docs/PERFORMANCE.md
// "Scaling past 500 nodes"):
//  * sparse simplex storage is a representation change, never a pivot
//    change — forcing it on or off leaves the Metrics series bit-identical,
//    serial or clustered;
//  * intra-slot cluster scheduling is invariant in the worker thread count;
//  * cross-slot LP warm starts are deterministic and survive
//    checkpoint/resume: a killed + resumed warm run replays the
//    uninterrupted run bit for bit (checkpoint v4 carries the solver
//    states).
// The structural exactness arguments (range pruning, the S4 split) are
// tested in tests/core/perf_levers_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/controller.hpp"
#include "lp/simplex.hpp"
#include "obs/registry.hpp"
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

TEST(PerfLevers, SparseForcedMatchesDenseBitIdentically) {
  const auto cfg = ScenarioConfig::paper();
  auto sparse = cfg.controller_options();
  sparse.lp.sparse = lp::SparseMode::Force;
  auto dense = cfg.controller_options();
  dense.lp.sparse = lp::SparseMode::Never;
  const Metrics a = run_with(cfg, 80, sparse);
  const Metrics b = run_with(cfg, 80, dense);
  expect_metrics_bit_identical(a, b);
}

TEST(PerfLevers, SparseChoiceIsInvariantUnderClusteredThreads) {
  // The representation guarantee must also hold on the clustered path,
  // where every cluster LP makes its own density decision.
  const auto cfg = ScenarioConfig::paper();
  auto sparse = cfg.controller_options();
  sparse.intra_slot_threads = 2;
  sparse.lp.sparse = lp::SparseMode::Force;
  auto dense = cfg.controller_options();
  dense.intra_slot_threads = 2;
  dense.lp.sparse = lp::SparseMode::Never;
  expect_metrics_bit_identical(run_with(cfg, 50, sparse),
                               run_with(cfg, 50, dense));
}

TEST(PerfLevers, ClusteredRunIsThreadCountInvariant) {
  // Cluster jobs land on workers in arbitrary order; the merge is by
  // cluster rank, so 2 and 4 workers must produce the same trajectory.
  const auto cfg = ScenarioConfig::paper();
  auto two = cfg.controller_options();
  two.intra_slot_threads = 2;
  auto four = cfg.controller_options();
  four.intra_slot_threads = 4;
  expect_metrics_bit_identical(run_with(cfg, 60, two),
                               run_with(cfg, 60, four));
}

TEST(PerfLevers, WarmAcrossSlotsRunIsBitReproducible) {
  const auto cfg = ScenarioConfig::tiny();
  auto warm = cfg.controller_options();
  warm.warm_across_slots = true;
  const Metrics a = run_with(cfg, 80, warm);
  const Metrics b = run_with(cfg, 80, warm);
  expect_metrics_bit_identical(a, b);
}

TEST(PerfLevers, WarmKillAndResumeIsBitIdentical) {
  // The cross-slot warm chain makes slot t depend on solver state from
  // slot t-1, so resume equality requires the checkpoint to carry that
  // state (v4) and the controller to re-import it — cold-starting the
  // chain on resume could diverge. This is the serialized-basis contract
  // docs/ROBUSTNESS.md pins.
  const auto cfg = ScenarioConfig::tiny();
  auto warm = cfg.controller_options();
  warm.warm_across_slots = true;
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

TEST(PerfLevers, CheckpointRoundTripsWarmCarry) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  auto warm_opts = cfg.controller_options();
  warm_opts.warm_across_slots = true;
  // The S4 half of the carry exists only on the opt-in LP energy manager.
  warm_opts.energy_manager = core::ControllerOptions::EnergyManager::Lp;
  core::LyapunovController ctrl(model, 3.0, warm_opts);
  SimOptions opts;
  Metrics m = run_simulation(model, ctrl, 20, opts);
  Rng rng(opts.input_seed);

  const Checkpoint a = make_checkpoint(20, rng, ctrl, m, nullptr, nullptr);
  ASSERT_TRUE(a.has_warm);
  EXPECT_FALSE(a.warm.s4_states.empty());  // S4 solves every slot

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
  auto copts = ScenarioConfig::tiny().controller_options();
  copts.intra_slot_threads = 2;
  copts.warm_across_slots = true;
  // The S4 warm chain below is the opt-in LP energy manager's.
  copts.energy_manager = core::ControllerOptions::EnergyManager::Lp;
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
