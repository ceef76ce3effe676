// SF referee: the paper's sequential-fix (SF) heuristic as the controller
// runs it (sf_schedule: one relax-round series per interference cluster)
// against the exact branch-and-bound optimum (exhaustive_schedule), on the
// seeded small instances bench/ablation_sf_vs_exact generates.
//
// Per instance the SF Psi1 weight must not exceed the exact optimum's, and
// the series must return the same schedule, bit for bit, inline (no pool,
// as at --intra-slot-threads 1) and on pools of 2 and 4 threads. Over the
// instances with a positive optimum, the mean optimality ratio (SF weight
// / exact weight) must stay at or above a floor taken from the measured
// value, rounded down to two decimals; the mean is recorded as a test
// property. The LP statistics the series forwards to a stats sink must
// likewise be the same records, in the same order, at every thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/instrumented_pool.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace gc::core {
namespace {

// bench/ablation_sf_vs_exact's default instance count.
constexpr int kInstances = 60;

// Instance k of bench/ablation_sf_vs_exact: the tiny layout with 4 users
// and one random band, and up to six random positive virtual queues. The
// state points at the model, so the instance is built in place and never
// moved.
struct Instance {
  explicit Instance(int k) : model(config(k).build()), state(model, 1.0) {
    Rng rng(static_cast<std::uint64_t>(k) * 977 + 3);
    int loaded = 0;
    for (int i = 0; i < model.num_nodes() && loaded < 6; ++i)
      for (int j = 0; j < model.num_nodes() && loaded < 6; ++j) {
        if (i == j) continue;
        if (rng.bernoulli(0.3)) {
          state.set_g_queue(i, j, rng.uniform(1.0, 100.0));
          ++loaded;
        }
      }
    Rng irng(static_cast<std::uint64_t>(k));
    inputs = model.sample_inputs(0, irng);
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  static sim::ScenarioConfig config(int k) {
    auto cfg = sim::ScenarioConfig::tiny();
    cfg.num_users = 4;
    cfg.spectrum.num_random_bands = 1;
    cfg.seed = static_cast<std::uint64_t>(k) + 500;
    return cfg;
  }

  NetworkModel model;
  NetworkState state;
  SlotInputs inputs;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

bool identical(const std::vector<ScheduledLink>& a,
               const std::vector<ScheduledLink>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k)
    if (a[k].tx != b[k].tx || a[k].rx != b[k].rx || a[k].band != b[k].band ||
        bits(a[k].power_w) != bits(b[k].power_w) ||
        bits(a[k].capacity_bps) != bits(b[k].capacity_bps) ||
        bits(a[k].capacity_packets) != bits(b[k].capacity_packets))
      return false;
  return true;
}

// What a stats sink learns of one SF solve, less its wall time.
struct SolveRecord {
  std::string context;
  int rows, cols, nonzeros;
  int phase1_iterations, phase2_iterations, pivots, degenerate_pivots,
      bound_flips, refactorizations;
  lp::Status status;
  bool operator==(const SolveRecord&) const = default;
};

struct CapturingSink : lp::SolveStatsSink {
  std::vector<SolveRecord> records;
  void on_solve(const lp::SolveStats& s, const char* context) override {
    records.push_back(SolveRecord{
        context, s.rows, s.cols, s.nonzeros, s.phase1_iterations,
        s.phase2_iterations, s.pivots, s.degenerate_pivots, s.bound_flips,
        s.refactorizations, s.status});
  }
};

std::string fixed9(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9f", x);
  return buf;
}

TEST(SfReferee, OneSeriesAgainstExhaustiveOptimumAtAnyThreadCount) {
  // Workers with private obs registries, so the cluster jobs' instruments
  // never race on the global one.
  obs::InstrumentedPool pool2(2), pool4(4);
  RunningStat ratio;

  for (int k = 0; k < kInstances; ++k) {
    const Instance in(k);
    const double w_exact = schedule_weight(
        in.state, exhaustive_schedule(in.state, in.inputs), in.inputs);
    const auto inline1 = sf_schedule(in.state, in.inputs);
    const auto pooled2 = sf_schedule(in.state, in.inputs, &pool2.pool());
    const auto pooled4 = sf_schedule(in.state, in.inputs, &pool4.pool());
    EXPECT_TRUE(identical(inline1, pooled2)) << "instance " << k;
    EXPECT_TRUE(identical(inline1, pooled4)) << "instance " << k;

    const double w_sf = schedule_weight(in.state, inline1, in.inputs);
    EXPECT_LE(w_sf, w_exact * (1.0 + 1e-9)) << "instance " << k;
    if (w_exact <= 0.0) continue;
    ratio.add(w_sf / w_exact);
  }

  RecordProperty("sf_mean_ratio", fixed9(ratio.mean()));
  RecordProperty("instances_with_positive_optimum",
                 static_cast<int>(ratio.count()));
  // Measured: 0.987527861 over all 60 instances.
  EXPECT_GE(ratio.mean(), 0.98) << "SF mean ratio";
}

TEST(SfReferee, StatsStreamIsThreadCountInvariant) {
  obs::InstrumentedPool pool2(2), pool4(4);
  std::size_t solves = 0;
  for (int k = 0; k < kInstances; ++k) {
    const Instance in(k);
    CapturingSink inline1, pooled2, pooled4;
    sf_schedule(in.state, in.inputs, nullptr, true, 0.0, {}, &inline1);
    sf_schedule(in.state, in.inputs, &pool2.pool(), true, 0.0, {}, &pooled2);
    sf_schedule(in.state, in.inputs, &pool4.pool(), true, 0.0, {}, &pooled4);
    EXPECT_TRUE(inline1.records == pooled2.records) << "instance " << k;
    EXPECT_TRUE(inline1.records == pooled4.records) << "instance " << k;
    for (const SolveRecord& r : inline1.records)
      EXPECT_EQ(r.context, "s1") << "instance " << k;
    solves += inline1.records.size();
  }
  EXPECT_GT(solves, 0u);
}

}  // namespace
}  // namespace gc::core
