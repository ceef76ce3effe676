// Hierarchical profiler (src/obs/profile.hpp): containment-based tree
// reconstruction from SpanEvent streams, self/total accounting, dim
// statistics, orphan re-rooting, and the JSON / collapsed-stack
// exporters. Events are built by hand so every
// interval is exact — no SpanRecorder, no clocks.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/timer.hpp"

namespace gc::obs {
namespace {

SpanEvent ev(const char* name, double start_s, double dur_s,
             std::uint32_t tid = 0, std::int64_t id = -1,
             std::int64_t dim = -1) {
  SpanEvent e;
  e.name = name;
  e.start_s = start_s;
  e.dur_s = dur_s;
  e.tid = tid;
  e.id = id;
  e.dim = dim;
  return e;
}

TEST(Profile, BuildsNestedTreeWithSelfAndTotal) {
  // Lane 0:  a [0,10] containing b [1,3], b [4,6], c [7,8].
  const std::vector<SpanEvent> spans = {
      ev("a", 0.0, 10.0),
      ev("b", 1.0, 2.0),
      ev("b", 4.0, 2.0),
      ev("c", 7.0, 1.0),
  };
  const Profile p = build_profile(spans);
  EXPECT_EQ(p.orphans, 0);
  EXPECT_EQ(p.root.name, "all");
  EXPECT_DOUBLE_EQ(p.root.total_s, 10.0);
  EXPECT_DOUBLE_EQ(p.root.self_s, 0.0);  // synthetic root carries no self
  ASSERT_EQ(p.root.children.size(), 1u);
  const ProfileNode& a = p.root.children.at("a");
  EXPECT_EQ(a.count, 1);
  EXPECT_DOUBLE_EQ(a.total_s, 10.0);
  EXPECT_NEAR(a.self_s, 5.0, 1e-12);  // 10 - (2 + 2 + 1)
  ASSERT_EQ(a.children.size(), 2u);
  const ProfileNode& b = a.children.at("b");
  EXPECT_EQ(b.count, 2);  // same-named siblings aggregate
  EXPECT_DOUBLE_EQ(b.total_s, 4.0);
  EXPECT_DOUBLE_EQ(b.self_s, 4.0);
  const ProfileNode& c = a.children.at("c");
  EXPECT_EQ(c.count, 1);
  EXPECT_DOUBLE_EQ(c.total_s, 1.0);
}

TEST(Profile, SeparatesThreadLanes) {
  // Identical intervals on two lanes must not nest into each other.
  const std::vector<SpanEvent> spans = {
      ev("a", 0.0, 4.0, /*tid=*/0),
      ev("a", 0.0, 4.0, /*tid=*/1),
      ev("b", 1.0, 1.0, /*tid=*/1),
  };
  const Profile p = build_profile(spans);
  const ProfileNode& a = p.root.children.at("a");
  EXPECT_EQ(a.count, 2);
  EXPECT_DOUBLE_EQ(a.total_s, 8.0);
  ASSERT_EQ(a.children.count("b"), 1u);
  EXPECT_EQ(a.children.at("b").count, 1);
}

TEST(Profile, AggregatesDimStatistics) {
  const std::vector<SpanEvent> spans = {
      ev("lp", 0.0, 1.0, 0, -1, /*dim=*/120),
      ev("lp", 2.0, 1.0, 0, -1, /*dim=*/80),
      ev("lp", 4.0, 1.0, 0, -1, /*dim=*/-1),  // unannotated: not counted
  };
  const Profile p = build_profile(spans);
  const ProfileNode& lp = p.root.children.at("lp");
  EXPECT_EQ(lp.count, 3);
  EXPECT_EQ(lp.dim_count, 2);
  EXPECT_DOUBLE_EQ(lp.dim_sum, 200.0);
  EXPECT_EQ(lp.dim_min, 80);
  EXPECT_EQ(lp.dim_max, 120);
}

TEST(Profile, StraddlingSpanBecomesOrphan) {
  // q starts inside p but outlives it — containment is broken (a ring
  // eviction artifact), so q re-roots at "all" and is counted.
  const std::vector<SpanEvent> spans = {
      ev("p", 0.0, 5.0),
      ev("q", 4.0, 4.0),
  };
  const Profile p = build_profile(spans);
  EXPECT_EQ(p.orphans, 1);
  ASSERT_EQ(p.root.children.count("q"), 1u);
  EXPECT_EQ(p.root.children.at("q").count, 1);
  EXPECT_EQ(p.root.children.at("p").children.count("q"), 0u);
}

TEST(Profile, CollapsedStackFormat) {
  const std::vector<SpanEvent> spans = {
      ev("a", 0.0, 10.0),
      ev("b", 1.0, 2.0),
  };
  const Profile p = build_profile(spans);
  // Self times: a = 8 s, b = 2 s; values are integer microseconds.
  EXPECT_EQ(p.to_collapsed(), "all;a 8000000\nall;a;b 2000000\n");
}

TEST(Profile, JsonRoundTripsThroughParser) {
  const std::vector<SpanEvent> spans = {
      ev("a", 0.0, 4.0),
      ev("b", 1.0, 2.0, 0, -1, /*dim=*/7),
  };
  Profile p = build_profile(spans);
  p.meta.scenario = "unit \"quoted\"";
  p.meta.nodes = 3;
  p.meta.links = 6;
  p.meta.sessions = 2;
  p.meta.slots = 10;
  p.meta.wall_s = 4.0;
  p.meta.slots_per_s = 2.5;
  const JsonValue v = json_parse(p.to_json());
  EXPECT_EQ(v.at("schema").as_string(), "gc.profile.v1");
  EXPECT_EQ(v.at("scenario").as_string(), "unit \"quoted\"");
  EXPECT_DOUBLE_EQ(v.at("slots").as_number(), 10.0);
  EXPECT_DOUBLE_EQ(v.at("slots_per_s").as_number(), 2.5);
  EXPECT_DOUBLE_EQ(v.at("orphans").as_number(), 0.0);
  const JsonValue& root = v.at("root");
  EXPECT_EQ(root.at("name").as_string(), "all");
  const JsonValue& a = root.at("children").as_array().at(0);
  EXPECT_EQ(a.at("name").as_string(), "a");
  EXPECT_DOUBLE_EQ(a.at("total_s").as_number(), 4.0);
  const JsonValue& b = a.at("children").as_array().at(0);
  EXPECT_EQ(b.at("name").as_string(), "b");
  EXPECT_DOUBLE_EQ(b.at("dim_mean").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(b.at("dim_min").as_number(), 7.0);
}

}  // namespace
}  // namespace gc::obs
