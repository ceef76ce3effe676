// Per-solve introspection (SolveStats / SolveStatsSink in lp/simplex.hpp)
// and the JSONL sink (lp/solve_log.hpp). The stats are observation only:
// the companion guarantee — solutions identical with or without a sink —
// rides on the fact that nothing here feeds back into the pivoting.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lp/simplex.hpp"
#include "lp/solve_log.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace gc::lp {
namespace {

Model packing_lp(int n, std::uint64_t seed) {
  Model m;
  Rng rng(seed);
  for (int j = 0; j < n; ++j)
    m.add_variable(0.0, 1.0, -(1.0 + rng.uniform01()));
  for (int r = 0; r < n / 4; ++r) {
    const int row = m.add_row(Sense::LessEqual, 2.0);
    for (int j = 0; j < n; ++j)
      if (rng.uniform01() < 0.3) m.set_coeff(row, j, 1.0);
  }
  return m;
}

int model_nonzeros(const Model& m) {
  int nnz = 0;
  for (int r = 0; r < m.num_rows(); ++r)
    nnz += static_cast<int>(m.row_entries(r).size());
  return nnz;
}

TEST(SolveStats, RecordsDimensionsAndWorkBreakdown) {
  const Model m = packing_lp(32, 11);
  Workspace ws;
  const Solution sol = solve(m, {}, ws);
  ASSERT_EQ(sol.status, Status::Optimal);
  const SolveStats& s = ws.last_stats();
  EXPECT_EQ(s.rows, m.num_rows());
  EXPECT_EQ(s.cols, m.num_variables());
  EXPECT_EQ(s.nonzeros, model_nonzeros(m));
  EXPECT_EQ(s.status, Status::Optimal);
  // The phase split partitions the reported iteration count, and every
  // iteration is a pivot or a bound flip.
  EXPECT_EQ(s.phase1_iterations + s.phase2_iterations, sol.iterations);
  EXPECT_EQ(s.pivots + s.bound_flips, sol.iterations);
  EXPECT_GE(s.degenerate_pivots, 0);
  EXPECT_LE(s.degenerate_pivots, s.pivots);
  EXPECT_GT(s.wall_s, 0.0);
  EXPECT_FALSE(s.warm_attempted);
  EXPECT_EQ(s.warm_vars_reused, 0);
}

TEST(SolveStats, RefreshedByEverySolve) {
  Workspace ws;
  solve(packing_lp(32, 11), {}, ws);
  const int cols_first = ws.last_stats().cols;
  solve(packing_lp(12, 5), {}, ws);
  EXPECT_EQ(cols_first, 32);
  EXPECT_EQ(ws.last_stats().cols, 12);
}

// A sink attached to the workspace sees one callback per solve, labeled
// with the workspace's context, and observing changes nothing about the
// solution.
TEST(SolveStats, SinkReceivesEverySolveWithContext) {
  struct CapturingSink : SolveStatsSink {
    std::vector<SolveStats> seen;
    std::vector<std::string> contexts;
    void on_solve(const SolveStats& stats, const char* context) override {
      seen.push_back(stats);
      contexts.emplace_back(context != nullptr ? context : "");
    }
  };
  const Model m = packing_lp(24, 3);
  CapturingSink sink;
  Workspace with_sink;
  with_sink.set_stats_context("s1");
  with_sink.set_stats_sink(&sink);
  Workspace plain;
  const Solution observed = solve(m, {}, with_sink);
  const Solution baseline = solve(m, {}, plain);
  ASSERT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(sink.contexts[0], "s1");
  EXPECT_EQ(sink.seen[0].cols, m.num_variables());
  EXPECT_EQ(observed.objective, baseline.objective);
  EXPECT_EQ(observed.iterations, baseline.iterations);
  solve(m, {}, with_sink);
  EXPECT_EQ(sink.seen.size(), 2u);
  // Detaching stops the stream.
  with_sink.set_stats_sink(nullptr);
  solve(m, {}, with_sink);
  EXPECT_EQ(sink.seen.size(), 2u);
}

TEST(JsonlSolveLog, WritesOneParseableLinePerSolve) {
  const std::string path = testing::TempDir() + "gc_solve_log_test.jsonl";
  {
    JsonlSolveLog log(path);
    Workspace ws;
    ws.set_stats_context("s3");
    ws.set_stats_sink(&log);
    const Model m = packing_lp(24, 9);
    solve(m, {}, ws);
    solve(m, {}, ws);
    EXPECT_EQ(log.lines_written(), 2);
  }  // destructor flushes
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  // The line schema is pinned: adding or dropping a key is a format change
  // that docs/OBSERVABILITY.md and every reader of the log must follow.
  const std::set<std::string> schema = {
      "ctx", "slot", "rows", "cols", "nonzeros", "phase1_iters",
      "phase2_iters", "pivots", "degenerate_pivots", "bound_flips",
      "refactorizations", "bland", "numeric_repairs", "status", "wall_s"};
  ASSERT_EQ(schema.size(), 15u);
  while (std::getline(in, line)) {
    ++lines;
    const obs::JsonValue v = obs::json_parse(line);
    std::set<std::string> keys;
    for (const auto& [key, value] : v.as_object()) keys.insert(key);
    EXPECT_EQ(keys, schema) << line;
    EXPECT_EQ(v.at("ctx").as_string(), "s3");
    EXPECT_DOUBLE_EQ(v.at("cols").as_number(), 24.0);
    EXPECT_EQ(v.at("status").as_string(), "Optimal");
    EXPECT_GT(v.at("wall_s").as_number(), 0.0);
    // A packing LP starts on its slack basis: no phase I.
    EXPECT_EQ(v.at("phase1_iters").as_number(), 0.0);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

// A full disk fails the flush that precedes a checkpoint instead of
// letting the checkpoint land ahead of a log that lost its lines.
TEST(JsonlSolveLog, FullDiskThrows) {
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  JsonlSolveLog log("/dev/full");
  Workspace ws;
  ws.set_stats_sink(&log);
  EXPECT_THROW(
      {
        solve(packing_lp(24, 9), {}, ws);
        log.flush();
      },
      CheckError);
  ws.set_stats_sink(nullptr);
}

// One timing primitive: the wall_s a solve reports is the very duration
// its lp.solve span (and the lp.solve_seconds histogram) received.
TEST(SolveStats, WallSecondsEqualTheLpSolveSpan) {
  obs::SpanRecorder& rec = obs::SpanRecorder::instance();
  rec.enable(64);
  Workspace ws;
  solve(packing_lp(24, 9), {}, ws);
  rec.disable();
  const std::vector<obs::SpanEvent> spans = rec.drain();
  const double wall_s = ws.last_stats().wall_s;
  EXPECT_GT(wall_s, 0.0);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "lp.solve");
  EXPECT_EQ(spans[0].dur_s, wall_s);
}

}  // namespace
}  // namespace gc::lp
