#include "obs/trace.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace gc::obs {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
}

TEST(JsonParse, ScalarsAndNesting) {
  const JsonValue v = json_parse(
      R"({"t":3,"neg":-1.5e2,"s":"hi\n","flag":true,"none":null,)"
      R"("arr":[1,2,3],"obj":{"k":4}})");
  EXPECT_DOUBLE_EQ(v.at("t").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(v.at("neg").as_number(), -150.0);
  EXPECT_EQ(v.at("s").as_string(), "hi\n");
  EXPECT_TRUE(v.at("flag").as_bool());
  EXPECT_TRUE(v.at("none").is_null());
  ASSERT_EQ(v.at("arr").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("arr").as_array()[2].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(v.at("obj").at("k").as_number(), 4.0);
  EXPECT_TRUE(v.has("t"));
  EXPECT_FALSE(v.has("missing"));
  EXPECT_DOUBLE_EQ(v.number_or("t", -1.0), 3.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", -1.0), -1.0);
}

TEST(JsonParse, MalformedInputThrowsCheckError) {
  EXPECT_THROW(json_parse(""), CheckError);
  EXPECT_THROW(json_parse("{"), CheckError);
  EXPECT_THROW(json_parse("{\"a\":}"), CheckError);
  EXPECT_THROW(json_parse("[1,2,]"), CheckError);
  EXPECT_THROW(json_parse("{\"a\":1} trailing"), CheckError);
  EXPECT_THROW(json_parse("\"unterminated"), CheckError);
  // Nesting is bounded, so a deep input is an error, not a stack overflow.
  EXPECT_THROW(json_parse(std::string(100000, '[')), CheckError);
  EXPECT_NO_THROW(json_parse(std::string(200, '[') + std::string(200, ']')));
}

// A policy-free slot record's groups, in key order. Wall-clock time is
// not among them: it lives in the ctrl.*_seconds timers and the spans.
const std::vector<std::string> kSlotRecordKeys = {
    "decisions", "energy", "queues", "robust", "stability", "t",
    "top_backlog"};

std::vector<std::string> top_level_keys(const JsonValue& v) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : v.as_object()) keys.push_back(key);
  return keys;
}

TEST(TraceSink, WritesOneParseableLinePerRecord) {
  const std::string path = ::testing::TempDir() + "gc_trace_sink_test.jsonl";
  {
    TraceSink sink(path);
    TraceRecord r;
    r.slot = 0;
    r.q_bs = 12.0;
    r.q_users = 8.5;
    r.h_total = 20.5;
    r.battery_bs_j = 900.0;
    r.battery_users_j = 450.0;
    r.grid_j = 100.0;
    r.cost = 2.5;
    r.admitted_packets = 30.0;
    r.delivered_packets = 18.0;
    r.scheduled_links = 4;
    r.routed_packets = 25.0;
    r.top_backlog = {{3, 9.0}, {1, 5.5}};
    sink.write(r);
    TraceRecord r2;
    r2.slot = 1;
    sink.write(r2);
    EXPECT_EQ(sink.records(), 2);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);

  const JsonValue v = json_parse(lines[0]);
  EXPECT_DOUBLE_EQ(v.at("t").as_number(), 0.0);
  EXPECT_EQ(top_level_keys(v), kSlotRecordKeys);
  EXPECT_DOUBLE_EQ(v.at("queues").at("q_bs").as_number(), 12.0);
  EXPECT_DOUBLE_EQ(v.at("queues").at("battery_users_j").as_number(), 450.0);
  EXPECT_DOUBLE_EQ(v.at("energy").at("cost").as_number(), 2.5);
  EXPECT_DOUBLE_EQ(v.at("decisions").at("admitted").as_number(), 30.0);
  EXPECT_DOUBLE_EQ(v.at("decisions").at("links").as_number(), 4.0);
  const auto& top = v.at("top_backlog").as_array();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_DOUBLE_EQ(top[0].at("node").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(top[0].at("packets").as_number(), 9.0);

  EXPECT_DOUBLE_EQ(json_parse(lines[1]).at("t").as_number(), 1.0);
}

TEST(TraceSink, UnwritablePathThrows) {
  EXPECT_THROW(TraceSink("/nonexistent-dir/trace.jsonl"), CheckError);
}

// A full disk must fail the run at the durability point: a flush that
// silently lost lines would let the next checkpoint land ahead of its
// trace.
TEST(TraceSink, FullDiskThrows) {
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  TraceSink sink("/dev/full");
  TraceRecord r;
  EXPECT_THROW(
      {
        sink.write_header("full", 1);
        sink.write(r);
        sink.flush();
      },
      CheckError);
}

// write() is safe under concurrent callers: no torn or interleaved lines,
// every record accounted for. (A run owns its sink, but nothing stops a
// caller from sharing one.)
TEST(TraceSink, ConcurrentWritersProduceWholeLines) {
  const std::string path = ::testing::TempDir() + "gc_trace_concurrent.jsonl";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  {
    TraceSink sink(path);
    std::vector<std::thread> writers;
    for (int w = 0; w < kThreads; ++w) {
      writers.emplace_back([&sink, w] {
        for (int i = 0; i < kPerThread; ++i) {
          TraceRecord r;
          r.slot = w * kPerThread + i;  // unique tag per record
          r.cost = 0.25 * r.slot;
          sink.write(r);
        }
      });
    }
    for (auto& t : writers) t.join();
    EXPECT_EQ(sink.records(), kThreads * kPerThread);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::set<int> slots_seen;
  for (const auto& line : lines) {
    const JsonValue v = json_parse(line);  // throws on a torn line
    const int slot = static_cast<int>(v.at("t").as_number());
    EXPECT_TRUE(slots_seen.insert(slot).second) << "duplicate slot " << slot;
    EXPECT_DOUBLE_EQ(v.at("energy").at("cost").as_number(), 0.25 * slot);
  }
  EXPECT_EQ(static_cast<int>(slots_seen.size()), kThreads * kPerThread);
}

// Integration: a traced simulation emits exactly one valid record per slot,
// with the fields the report pipeline depends on.
TEST(TraceIntegration, SimulationEmitsOneRecordPerSlot) {
  const std::string path = ::testing::TempDir() + "gc_trace_sim_test.jsonl";
  const int slots = 12;
  const auto cfg = sim::ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  sim::SimOptions opt;
  opt.trace_path = path;
  opt.trace_top_k = 2;
  const auto m = sim::run_simulation(model, controller, slots, opt);
  EXPECT_EQ(m.slots, slots);

  const auto lines = read_lines(path);
  // Line 0 is the scenario header; slot records follow.
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(slots) + 1);
  const JsonValue header = json_parse(lines[0]);
  EXPECT_EQ(header.at("scenario").at("hash").as_string(),
            "0x0000000000000000");
  for (int t = 0; t < slots; ++t) {
    const JsonValue v = json_parse(lines[t + 1]);
    EXPECT_DOUBLE_EQ(v.at("t").as_number(), t);
    // Trace queue totals must match the metrics series the plots use.
    EXPECT_DOUBLE_EQ(v.at("queues").at("q_bs").as_number(), m.q_bs[t]);
    EXPECT_DOUBLE_EQ(v.at("queues").at("q_users").as_number(), m.q_users[t]);
    EXPECT_DOUBLE_EQ(v.at("energy").at("grid_j").as_number(), m.grid_j[t]);
    // No wall-clock group: a slot record is a pure function of the run.
    EXPECT_EQ(top_level_keys(v), kSlotRecordKeys);
    EXPECT_LE(v.at("top_backlog").as_array().size(), 2u);
  }
}

}  // namespace
}  // namespace gc::obs
