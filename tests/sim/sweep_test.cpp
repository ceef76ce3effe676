// Parallel sweep engine: per-seed determinism at any thread count, merged
// observability, path-collision checks, and error propagation
// (sim/sweep.hpp; the determinism guarantee is documented in
// docs/PERFORMANCE.md).
#include "sim/sweep.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics_testutil.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "policy/sleep.hpp"
#include "sim/checkpoint.hpp"
#include "util/check.hpp"

namespace gc::sim {
namespace {

// A small (scenario seed, input seed) grid on the tiny scenario.
std::vector<SimJob> grid_jobs(int slots = 6) {
  std::vector<SimJob> jobs;
  for (std::uint64_t scenario_seed : {11u, 12u}) {
    for (std::uint64_t input_seed : {100u, 101u}) {
      SimJob job;
      job.scenario = ScenarioConfig::tiny();
      job.scenario.seed = scenario_seed;
      job.V = 3.0;
      job.slots = slots;
      job.sim.input_seed = input_seed;
      jobs.push_back(job);
    }
  }
  return jobs;
}

std::vector<Metrics> run_with_threads(const std::vector<SimJob>& jobs,
                                      int threads, obs::Registry* merge_into) {
  SweepOptions opt;
  opt.threads = threads;
  opt.merge_into = merge_into;
  return SweepRunner(opt).run(jobs);
}

// The tentpole guarantee: the same (scenario, seed) grid run at 1 and N
// worker threads yields bit-identical per-seed Metrics.
TEST(Sweep, ParallelMatchesSerialBitIdentically) {
  const auto jobs = grid_jobs();
  obs::Registry r1, r4;
  const auto serial = run_with_threads(jobs, 1, &r1);
  const auto parallel = run_with_threads(jobs, 4, &r4);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    expect_metrics_bit_identical(serial[i], parallel[i]);
}

// ... and both match running the jobs inline, outside any pool.
TEST(Sweep, SweepMatchesInlineRunJob) {
  const auto jobs = grid_jobs();
  obs::Registry sink;
  const auto swept = run_with_threads(jobs, 2, &sink);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    expect_metrics_bit_identical(swept[i], run_job(jobs[i]));
}

// Integral counters (slot counts, LP solve/iteration volumes) must merge
// to exactly the same totals no matter how jobs land on workers. FP-summed
// counters (energy totals) are only reproducible for a fixed thread count,
// so they are not asserted here.
TEST(Sweep, MergedCountersAreThreadCountInvariant) {
  const auto jobs = grid_jobs();
  obs::Registry r1, r3;
  run_with_threads(jobs, 1, &r1);
  run_with_threads(jobs, 3, &r3);
  for (const char* name : {"ctrl.slots", "lp.solves", "lp.iterations"}) {
    EXPECT_EQ(r1.counter(name).total(), r3.counter(name).total()) << name;
    EXPECT_EQ(r1.counter(name).events(), r3.counter(name).events()) << name;
    EXPECT_GT(r1.counter(name).events(), 0) << name << " never bumped";
  }
  const int expected_slots = static_cast<int>(jobs.size()) * jobs[0].slots;
  EXPECT_EQ(r1.counter("ctrl.slots").total(), expected_slots);
}

TEST(Sweep, SharedTracePathRejected) {
  auto jobs = grid_jobs(2);
  const std::string path = ::testing::TempDir() + "gc_sweep_shared.jsonl";
  jobs[0].sim.trace_path = path;
  jobs[1].sim.trace_path = path;
  EXPECT_THROW(SweepRunner().run(jobs), CheckError);
}

TEST(Sweep, SharedCheckpointPathRejected) {
  auto jobs = grid_jobs(2);
  const std::string path = ::testing::TempDir() + "gc_sweep_shared.ckpt";
  jobs[0].sim.checkpoint_path = path;
  jobs[2].sim.checkpoint_path = path;
  EXPECT_THROW(SweepRunner().run(jobs), CheckError);
}

TEST(Sweep, DistinctTracePathsAllWritten) {
  auto jobs = grid_jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].sim.trace_path = ::testing::TempDir() + "gc_sweep_trace_" +
                             std::to_string(i) + ".jsonl";
  SweepOptions opt;
  opt.threads = 2;
  obs::Registry sink;
  opt.merge_into = &sink;
  SweepRunner(opt).run(jobs);
  for (const auto& job : jobs) {
    std::ifstream in(job.sim.trace_path);
    ASSERT_TRUE(in.good()) << job.sim.trace_path;
    int lines = 0;
    std::string line;
    while (std::getline(in, line))
      if (!line.empty()) ++lines;
    // One scenario header line plus one record per slot.
    EXPECT_EQ(lines, job.slots + 1) << job.sim.trace_path;
  }
}

// Snapshots are pure observers: a sweep that writes per-job and fleet
// snapshots (with the auditor on) produces bit-identical Metrics to a
// serial sweep without any of it — and the final fleet snapshot's counter
// totals equal the merged registry's, since it is written after the
// worker-index-order merge.
TEST(Sweep, SnapshotsAreMetricsNeutralAndFleetTotalsMatchMergedRegistry) {
  const auto plain = grid_jobs();
  obs::Registry r1;
  const auto serial = run_with_threads(plain, 1, &r1);

  auto jobs = plain;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].sim.snapshot_path = ::testing::TempDir() + "gc_sweep_snap_" +
                                std::to_string(i) + ".json";
    jobs[i].sim.snapshot_every = 2;
  }
  const std::string fleet_path =
      ::testing::TempDir() + "gc_sweep_fleet.json";
  SweepOptions opt;
  opt.threads = 4;
  obs::Registry r4;
  opt.merge_into = &r4;
  opt.snapshot_path = fleet_path;
  const auto parallel = SweepRunner(opt).run(jobs);
  ASSERT_EQ(parallel.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    expect_metrics_bit_identical(serial[i], parallel[i]);

  // Every per-job snapshot and the fleet snapshot landed (with .prom twin).
  for (const auto& job : jobs) {
    EXPECT_TRUE(std::ifstream(job.sim.snapshot_path).good())
        << job.sim.snapshot_path;
    EXPECT_TRUE(std::ifstream(job.sim.snapshot_path + ".prom").good());
  }
  std::ifstream in(fleet_path);
  ASSERT_TRUE(in.good()) << fleet_path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const obs::JsonValue v = obs::json_parse(ss.str());
  EXPECT_DOUBLE_EQ(v.at("fleet").at("jobs_done").as_number(),
                   static_cast<double>(jobs.size()));
  EXPECT_DOUBLE_EQ(v.at("fleet").at("jobs_total").as_number(),
                   static_cast<double>(jobs.size()));
  const obs::JsonValue& counters = v.at("registry").at("counters");
  for (const char* name :
       {"ctrl.slots", "lp.solves", "stability.audited_slots"}) {
    ASSERT_TRUE(counters.has(name)) << name;
    EXPECT_DOUBLE_EQ(counters.at(name).at("total").as_number(),
                     r4.counter(name).total())
        << name;
  }
  const int expected_slots =
      static_cast<int>(jobs.size()) * jobs[0].slots;
  EXPECT_DOUBLE_EQ(
      counters.at("stability.audited_slots").at("total").as_number(),
      expected_slots);
  for (const auto& job : jobs) {
    std::remove(job.sim.snapshot_path.c_str());
    std::remove((job.sim.snapshot_path + ".prom").c_str());
  }
  std::remove(fleet_path.c_str());
  std::remove((fleet_path + ".prom").c_str());
}

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Fleet snapshots derive their policy section from the merged registry's
// policy.* instruments (no live SleepController exists at the fleet level):
// the section appears iff some job ran a policy, and its aggregates must
// equal the merged totals exactly. A policy-free fleet must not leak the
// awake_bs = -1 sentinel.
TEST(Sweep, FleetSnapshotPolicyAggregatesMatchMergedRegistry) {
  // Policy-free fleet: no "policy" section, no gc_policy_* lines.
  const std::string plain_path =
      ::testing::TempDir() + "gc_sweep_fleet_plain.json";
  {
    SweepOptions opt;
    opt.threads = 2;
    obs::Registry sink;
    opt.merge_into = &sink;
    opt.snapshot_path = plain_path;
    SweepRunner(opt).run(grid_jobs());
    const obs::JsonValue v = obs::json_parse(read_whole_file(plain_path));
    EXPECT_FALSE(v.has("policy"));
    EXPECT_EQ(read_whole_file(plain_path + ".prom").find("gc_policy_"),
              std::string::npos);
    std::remove(plain_path.c_str());
    std::remove((plain_path + ".prom").c_str());
  }

  // Fleet with a sleep policy on every job.
  policy::SleepSetup setup;
  setup.config.policy = policy::SleepPolicy::Hysteresis;
  setup.config.sleep_threshold = 50.0;  // mean backlog stays below: sleeps
  setup.config.wake_threshold = 200.0;
  setup.config.min_dwell_slots = 2;
  auto jobs = grid_jobs(8);
  for (auto& job : jobs) job.sim.sleep = &setup;
  const std::string fleet_path =
      ::testing::TempDir() + "gc_sweep_fleet_policy.json";
  SweepOptions opt;
  opt.threads = 2;
  obs::Registry merged;
  opt.merge_into = &merged;
  opt.snapshot_path = fleet_path;
  const auto metrics = SweepRunner(opt).run(jobs);
  const obs::JsonValue v = obs::json_parse(read_whole_file(fleet_path));

  ASSERT_TRUE(v.has("policy")) << read_whole_file(fleet_path);
  const obs::JsonValue& p = v.at("policy");
  EXPECT_DOUBLE_EQ(p.at("awake_bs").as_number(),
                   merged.gauge("policy.awake_bs").value());
  EXPECT_DOUBLE_EQ(p.at("switches").as_number(),
                   merged.counter("policy.switches").total());
  EXPECT_DOUBLE_EQ(p.at("switch_energy_j").as_number(),
                   merged.counter("policy.switch_energy_j").total());
  EXPECT_DOUBLE_EQ(p.at("sleep_slots").as_number(),
                   merged.counter("policy.sleep_slots").total());
  // The registry totals themselves must agree with the per-job Metrics
  // aggregates — the same counters, summed two independent ways.
  double switches = 0.0, sleep_slots = 0.0;
  for (const Metrics& m : metrics) {
    switches += static_cast<double>(m.policy_switches);
    sleep_slots += static_cast<double>(m.policy_sleep_slots);
  }
  EXPECT_DOUBLE_EQ(merged.counter("policy.switches").total(), switches);
  EXPECT_DOUBLE_EQ(merged.counter("policy.sleep_slots").total(),
                   sleep_slots);
  EXPECT_GT(sleep_slots, 0.0) << "the hysteresis policy never slept a BS";
  const std::string prom = read_whole_file(fleet_path + ".prom");
  EXPECT_NE(prom.find("# TYPE gc_policy_awake_bs gauge"),
            std::string::npos);
  std::remove(fleet_path.c_str());
  std::remove((fleet_path + ".prom").c_str());
}

TEST(Sweep, SharedSnapshotPathRejected) {
  auto jobs = grid_jobs(2);
  const std::string path = ::testing::TempDir() + "gc_sweep_shared_snap.json";
  jobs[0].sim.snapshot_path = path;
  jobs[1].sim.snapshot_path = path;
  EXPECT_THROW(SweepRunner().run(jobs), CheckError);
}

// A job snapshot colliding with the FLEET snapshot path is just as torn.
TEST(Sweep, JobSnapshotPathCollidingWithFleetRejected) {
  auto jobs = grid_jobs(2);
  const std::string path = ::testing::TempDir() + "gc_sweep_fleet_clash.json";
  jobs[1].sim.snapshot_path = path;
  SweepOptions opt;
  opt.snapshot_path = path;
  obs::Registry sink;
  opt.merge_into = &sink;
  EXPECT_THROW(SweepRunner(opt).run(jobs), CheckError);
}

// Satellite: resume-under-sweep. One seed's worker stops partway through
// the grid (its checkpoint generations surviving on disk); relaunching the
// whole grid with resume_auto converges to the uninterrupted sweep —
// per-seed Metrics bit-identical, and, because the stop landed exactly on
// a checkpoint boundary (run_loop always writes a final checkpoint), no
// slot is ever computed twice, so the merged registry and the fleet
// snapshot carry exactly the uninterrupted totals.
TEST(Sweep, ResumedSweepMatchesUninterruptedRegistryAndFleetSnapshot) {
  const int horizon = 12;
  const auto ref_jobs = grid_jobs(horizon);
  obs::Registry ref_reg;
  const auto ref = run_with_threads(ref_jobs, 2, &ref_reg);

  std::vector<std::string> bases;
  auto leg1 = ref_jobs;
  for (std::size_t i = 0; i < leg1.size(); ++i) {
    bases.push_back(::testing::TempDir() + "gc_sweep_resume_" +
                    std::to_string(i) + ".ckpt");
    remove_generations(bases[i]);
    leg1[i].sim.checkpoint_path = bases[i];
    leg1[i].sim.checkpoint_every = 4;
  }
  // Job 1's worker is lost after slot 8; the rest of the fleet finishes.
  leg1[1].slots = 8;

  obs::Registry resumed_reg;
  SweepOptions o1;
  o1.threads = 2;
  o1.merge_into = &resumed_reg;
  SweepRunner(o1).run(leg1);

  // Relaunch the whole grid at the full horizon. Finished seeds resume at
  // their final checkpoint and re-run zero slots; the interrupted one
  // continues from slot 8.
  auto leg2 = ref_jobs;
  for (std::size_t i = 0; i < leg2.size(); ++i) {
    leg2[i].sim.checkpoint_path = bases[i];
    leg2[i].sim.checkpoint_every = 4;
    leg2[i].sim.resume_path = bases[i];
    leg2[i].sim.resume_auto = true;
  }
  const std::string fleet_path =
      ::testing::TempDir() + "gc_sweep_resume_fleet.json";
  SweepOptions o2;
  o2.threads = 2;
  o2.merge_into = &resumed_reg;
  o2.snapshot_path = fleet_path;
  const auto resumed = SweepRunner(o2).run(leg2);

  ASSERT_EQ(resumed.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_metrics_bit_identical(ref[i], resumed[i]);

  // Both legs merged into resumed_reg; with no replayed slots the
  // integral totals must equal the uninterrupted sweep's exactly.
  for (const char* name : {"ctrl.slots", "lp.solves", "lp.iterations"}) {
    EXPECT_EQ(ref_reg.counter(name).total(),
              resumed_reg.counter(name).total())
        << name;
    EXPECT_EQ(ref_reg.counter(name).events(),
              resumed_reg.counter(name).events())
        << name;
  }
  // Every job in leg 2 resumed (finished ones included), none fell back.
  EXPECT_EQ(resumed_reg.counter("robust.resumes").total(),
            static_cast<double>(ref_jobs.size()));
  EXPECT_EQ(resumed_reg.counter("robust.checkpoint_fallbacks").total(), 0);

  // The fleet snapshot is written from the merged registry, so its
  // counters equal the uninterrupted sweep's too.
  std::ifstream in(fleet_path);
  ASSERT_TRUE(in.good()) << fleet_path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const obs::JsonValue v = obs::json_parse(ss.str());
  EXPECT_DOUBLE_EQ(v.at("fleet").at("jobs_done").as_number(),
                   static_cast<double>(ref_jobs.size()));
  const obs::JsonValue& counters = v.at("registry").at("counters");
  for (const char* name : {"ctrl.slots", "lp.solves"}) {
    ASSERT_TRUE(counters.has(name)) << name;
    EXPECT_DOUBLE_EQ(counters.at(name).at("total").as_number(),
                     ref_reg.counter(name).total())
        << name;
  }

  for (const auto& base : bases) remove_generations(base);
  std::remove(fleet_path.c_str());
  std::remove((fleet_path + ".prom").c_str());
}

// The interrupted seed's NEWEST generation is corrupted on disk. The sweep
// resume falls back to the older generation and deterministically replays
// the lost tail; jobs whose bases hold no checkpoint at all start fresh
// under resume_auto. Either way every seed converges bit-identically.
TEST(Sweep, SweepResumeFallsBackPastCorruptNewestGeneration) {
  const int horizon = 12;
  const auto ref_jobs = grid_jobs(horizon);
  obs::Registry ref_reg;
  const auto ref = run_with_threads(ref_jobs, 1, &ref_reg);

  std::vector<std::string> bases;
  for (std::size_t i = 0; i < ref_jobs.size(); ++i) {
    bases.push_back(::testing::TempDir() + "gc_sweep_fallback_" +
                    std::to_string(i) + ".ckpt");
    remove_generations(bases[i]);
  }

  // Only job 1 ran before the crash: checkpoints at slots 4 and 8.
  SimJob partial = ref_jobs[1];
  partial.slots = 8;
  partial.sim.checkpoint_path = bases[1];
  partial.sim.checkpoint_every = 4;
  obs::Registry resumed_reg;
  run_with_threads({partial}, 1, &resumed_reg);

  const auto gens = list_generations(bases[1]);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(load_checkpoint(gens.back().file).next_slot, 8);
  {
    // Truncate the newest generation mid-header: unambiguously corrupt.
    std::ofstream torn(gens.back().file,
                       std::ios::binary | std::ios::trunc);
    torn << "GCCKPT01\x03";
  }

  auto leg2 = ref_jobs;
  for (std::size_t i = 0; i < leg2.size(); ++i) {
    leg2[i].sim.checkpoint_path = bases[i];
    leg2[i].sim.checkpoint_every = 4;
    leg2[i].sim.resume_path = bases[i];
    leg2[i].sim.resume_auto = true;
  }
  const auto resumed = run_with_threads(leg2, 2, &resumed_reg);

  ASSERT_EQ(resumed.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_metrics_bit_identical(ref[i], resumed[i]);
  // Exactly one generation was skipped as corrupt, by job 1's resume.
  EXPECT_EQ(resumed_reg.counter("robust.checkpoint_fallbacks").total(), 1);
  EXPECT_EQ(resumed_reg.counter("robust.resumes").total(), 1);
  for (const auto& base : bases) remove_generations(base);
}

TEST(Sweep, PropagatesFirstFailureAfterFinishing) {
  SweepOptions opt;
  opt.threads = 2;
  obs::Registry sink;
  opt.merge_into = &sink;
  SweepRunner runner(opt);
  std::vector<int> completed(5, 0);
  try {
    runner.run_indexed(5, [&](int i) {
      if (i == 1 || i == 3) GC_CHECK_MSG(false, "job " << i << " fails");
      completed[static_cast<std::size_t>(i)] = 1;
    });
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    // First failure in index order, even if job 3 failed first on the clock.
    EXPECT_NE(std::string(e.what()).find("job 1 fails"), std::string::npos);
  }
  // The healthy jobs all ran to completion despite the failures.
  EXPECT_EQ(completed, (std::vector<int>{1, 0, 1, 0, 1}));
}

TEST(Sweep, MapReturnsResultsInIndexOrder) {
  SweepOptions opt;
  opt.threads = 3;
  obs::Registry sink;
  opt.merge_into = &sink;
  const std::vector<int> squares =
      SweepRunner(opt).map<int>(10, [](int i) { return i * i; });
  ASSERT_EQ(squares.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(Sweep, EmptyBatchIsANoOp) {
  obs::Registry sink;
  SweepOptions opt;
  opt.merge_into = &sink;
  EXPECT_TRUE(SweepRunner(opt).run({}).empty());
}

}  // namespace
}  // namespace gc::sim
