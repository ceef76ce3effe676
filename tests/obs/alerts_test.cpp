// AlertEngine (src/obs/alerts.hpp): rule-file parsing and validation,
// counter-delta vs gauge semantics, windowed rates, for_slots debounce,
// fire/clear events, and the checkpoint state round trip with its
// rules_hash refusal.
#include "obs/alerts.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace gc::obs {
namespace {

std::string write_rules(const char* name, const std::string& body) {
  const std::string path =
      testing::TempDir() + "gc_alerts_test_" + name + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << body;
  return path;
}

AlertRule gauge_rule(const std::string& name, const std::string& metric,
                     double threshold, bool critical = false,
                     int for_slots = 1) {
  AlertRule r;
  r.name = name;
  r.metric = metric;
  r.kind = AlertRule::MetricKind::kGauge;
  r.threshold = threshold;
  r.critical = critical;
  r.for_slots = for_slots;
  return r;
}

TEST(AlertEngine, FromJsonFileParsesEveryField) {
  const std::string path = write_rules("ok", R"({"rules":[
    {"name":"degraded","metric":"ctrl.degraded_slots","op":">","value":0,
     "severity":"critical","kind":"counter","window_slots":16,
     "for_slots":3},
    {"name":"stalled","metric":"policy.awake_bs","op":"<","value":1,
     "severity":"warning","kind":"gauge"}]})");
  const AlertEngine engine = AlertEngine::from_json_file(path);
  ASSERT_EQ(engine.rules().size(), 2u);
  const AlertRule& a = engine.rules()[0];
  EXPECT_EQ(a.name, "degraded");
  EXPECT_EQ(a.metric, "ctrl.degraded_slots");
  EXPECT_EQ(a.op, AlertRule::Op::kGreater);
  EXPECT_EQ(a.kind, AlertRule::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(a.threshold, 0.0);
  EXPECT_EQ(a.window_slots, 16);
  EXPECT_EQ(a.for_slots, 3);
  EXPECT_TRUE(a.critical);
  const AlertRule& b = engine.rules()[1];
  EXPECT_EQ(b.op, AlertRule::Op::kLess);
  EXPECT_EQ(b.kind, AlertRule::MetricKind::kGauge);
  EXPECT_EQ(b.window_slots, 0);
  EXPECT_EQ(b.for_slots, 1);
  EXPECT_FALSE(b.critical);
  EXPECT_NE(engine.rules_hash(), 0u);
  std::remove(path.c_str());
}

// Checkpoint v6 keys alert state on rules_hash(), so how a rule file is
// read must never move the hash of a valid file.
TEST(AlertEngine, RulesHashIsPinned) {
  const std::string path = write_rules("pin", R"({"rules":[
    {"name":"degraded","metric":"ctrl.degraded_slots","op":">","value":0,
     "severity":"critical","kind":"counter","window_slots":16,
     "for_slots":3},
    {"name":"stalled","metric":"policy.awake_bs","op":"<","value":1.5,
     "severity":"warning"}]})");
  EXPECT_EQ(AlertEngine::from_json_file(path).rules_hash(),
            0x1efd955bfebf351bull);
  std::remove(path.c_str());
}

TEST(AlertEngine, FromJsonFileRejectsMalformedFiles) {
  const struct {
    const char* tag;
    const char* body;
  } bad[] = {
      {"notjson", "{rules"},
      {"norules", R"({"alerts":[]})"},
      {"missing", R"({"rules":[{"name":"x","metric":"m","op":">"}]})"},
      {"badop", R"({"rules":[{"name":"x","metric":"m","op":">=","value":0,
                    "severity":"warning"}]})"},
      {"badsev", R"({"rules":[{"name":"x","metric":"m","op":">","value":0,
                     "severity":"page"}]})"},
      {"badkind", R"({"rules":[{"name":"x","metric":"m","op":">","value":0,
                      "severity":"warning","kind":"histogram"}]})"},
      {"dupname", R"({"rules":[
          {"name":"x","metric":"m","op":">","value":0,"severity":"warning"},
          {"name":"x","metric":"n","op":">","value":0,"severity":"warning"}]})"},
      {"badfor", R"({"rules":[{"name":"x","metric":"m","op":">","value":0,
                     "severity":"warning","for_slots":0}]})"},
      // A misspelt key used to be ignored, silently dropping the debounce.
      {"typo", R"({"rules":[{"name":"x","metric":"m","op":">","value":0,
                   "severity":"warning","for_slot":100}]})"},
      {"rootkey", R"({"rules":[],"rule":[]})"},
      {"fracwindow", R"({"rules":[{"name":"x","metric":"m","op":">",
                         "value":0,"severity":"warning",
                         "window_slots":2.5}]})"},
      {"hugefor", R"({"rules":[{"name":"x","metric":"m","op":">","value":0,
                      "severity":"warning","for_slots":1e10}]})"},
  };
  for (const auto& c : bad) {
    const std::string path = write_rules(c.tag, c.body);
    EXPECT_THROW(AlertEngine::from_json_file(path), CheckError) << c.tag;
    std::remove(path.c_str());
  }
  // Errors name the file and the key path.
  ASSERT_STREQ(bad[8].tag, "typo");
  const std::string path = write_rules("typo", bad[8].body);
  try {
    AlertEngine::from_json_file(path);
    ADD_FAILURE() << "a misspelt key parsed";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gc_alerts_test_typo.json"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rules[0]: unknown key \"for_slot\""),
              std::string::npos)
        << msg;
  }
  std::remove(path.c_str());
  EXPECT_THROW(AlertEngine::from_json_file(testing::TempDir() +
                                           "gc_alerts_test_nofile.json"),
               CheckError);
}

TEST(AlertEngine, CounterRulesSeeOnlyInLoopDeltas) {
  Registry reg;
  Counter& c = reg.counter("t.fallbacks");
  c.add(100.0);  // pre-loop history (a resumed process's counter bump)

  AlertRule r;
  r.name = "fallbacks";
  r.metric = "t.fallbacks";
  r.kind = AlertRule::MetricKind::kCounter;
  r.threshold = 0.0;  // fires on any in-loop increment
  AlertEngine engine({r});
  EventJournal journal;

  engine.rebase(reg);  // latches the 100: it must never feed the rule
  engine.evaluate(reg, 0, &journal);
  EXPECT_EQ(engine.firing(), 0);

  c.add(1.0);
  engine.evaluate(reg, 1, &journal);
  EXPECT_EQ(engine.firing(), 1);
  EXPECT_EQ(engine.total_fires(), 1u);

  std::uint64_t next = 0;
  const auto lines = journal.ring_since(0, &next);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"kind\":\"alert_fire\""), std::string::npos);
  EXPECT_NE(lines[0].find("fallbacks [warning] t.fallbacks"),
            std::string::npos)
      << lines[0];
}

TEST(AlertEngine, GaugeRulesAreInstantaneousAndClear) {
  Registry reg;
  Gauge& g = reg.gauge("t.level");
  AlertEngine engine({gauge_rule("level", "t.level", 3.0,
                                 /*critical=*/true)});
  EventJournal journal;
  engine.rebase(reg);

  g.set(5.0);
  engine.evaluate(reg, 0, &journal);
  EXPECT_EQ(engine.firing(), 1);
  EXPECT_EQ(engine.critical_firing(), 1);

  g.set(2.0);
  engine.evaluate(reg, 1, &journal);
  EXPECT_EQ(engine.firing(), 0);
  EXPECT_EQ(engine.critical_firing(), 0);
  EXPECT_EQ(engine.total_fires(), 1u);  // clears don't count as fires

  std::uint64_t next = 0;
  const auto lines = journal.ring_since(0, &next);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"kind\":\"alert_fire\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"alert_clear\""), std::string::npos);
  EXPECT_NE(lines[1].find("level [critical] t.level"), std::string::npos);
}

TEST(AlertEngine, ForSlotsDebouncesConsecutiveHolds) {
  Registry reg;
  Gauge& g = reg.gauge("t.level");
  AlertEngine engine({gauge_rule("level", "t.level", 0.0,
                                 /*critical=*/false, /*for_slots=*/3)});
  engine.rebase(reg);

  g.set(1.0);
  engine.evaluate(reg, 0, nullptr);
  engine.evaluate(reg, 1, nullptr);
  EXPECT_EQ(engine.firing(), 0);  // held 2 < 3 slots
  engine.evaluate(reg, 2, nullptr);
  EXPECT_EQ(engine.firing(), 1);

  // One non-holding slot resets the debounce entirely.
  g.set(0.0);
  engine.evaluate(reg, 3, nullptr);
  EXPECT_EQ(engine.firing(), 0);
  g.set(1.0);
  engine.evaluate(reg, 4, nullptr);
  engine.evaluate(reg, 5, nullptr);
  EXPECT_EQ(engine.firing(), 0);
  engine.evaluate(reg, 6, nullptr);
  EXPECT_EQ(engine.firing(), 1);
  EXPECT_EQ(engine.total_fires(), 2u);
}

TEST(AlertEngine, WindowRuleFiresOnRateNotTotal) {
  Registry reg;
  Counter& c = reg.counter("t.c");
  AlertRule r;
  r.name = "rate";
  r.metric = "t.c";
  r.kind = AlertRule::MetricKind::kCounter;
  r.threshold = 3.0;      // > 3 increments...
  r.window_slots = 2;     // ...over the last 2 slots
  AlertEngine engine({r});
  engine.rebase(reg);

  // A slow, steady counter never fires even as its total passes 3.
  for (int t = 0; t < 6; ++t) {
    c.add(1.0);
    engine.evaluate(reg, t, nullptr);
    EXPECT_EQ(engine.firing(), 0) << "slot " << t;
  }
  // A burst of 5 inside one window does.
  c.add(5.0);
  engine.evaluate(reg, 6, nullptr);
  EXPECT_EQ(engine.firing(), 1);
  // The burst leaves the window two slots later; the rule clears.
  engine.evaluate(reg, 7, nullptr);
  engine.evaluate(reg, 8, nullptr);
  EXPECT_EQ(engine.firing(), 0);
}

TEST(AlertEngine, AbsentMetricReadsZero) {
  Registry reg;
  AlertRule lo;  // 0 < 1 holds immediately, without any instrument
  lo.name = "lo";
  lo.metric = "never.registered";
  lo.op = AlertRule::Op::kLess;
  lo.threshold = 1.0;
  AlertRule hi;  // 0 > 1 never holds
  hi.name = "hi";
  hi.metric = "never.registered";
  hi.threshold = 1.0;
  AlertEngine engine({lo, hi});
  engine.rebase(reg);
  engine.evaluate(reg, 0, nullptr);
  EXPECT_EQ(engine.firing(), 1);
}

TEST(AlertEngine, StateRoundTripsAndRefusesForeignRules) {
  Registry reg;
  Gauge& g = reg.gauge("t.level");
  const std::vector<AlertRule> rules = {
      gauge_rule("level", "t.level", 3.0, true),
      gauge_rule("slowburn", "t.level", 0.0, false, /*for_slots=*/5)};
  AlertEngine engine(rules);
  engine.rebase(reg);
  g.set(5.0);
  engine.evaluate(reg, 0, nullptr);
  engine.evaluate(reg, 1, nullptr);  // slowburn held 2/5 slots
  ASSERT_EQ(engine.firing(), 1);

  const AlertEngineState s = engine.state();
  EXPECT_EQ(s.rules_hash, engine.rules_hash());
  EXPECT_EQ(s.total_fires, 1u);
  ASSERT_EQ(s.rules.size(), 2u);
  EXPECT_TRUE(s.rules[0].firing);
  EXPECT_EQ(s.rules[1].hold, 2u);

  // Restored into a fresh engine (same rules), the debounce continues
  // exactly where the checkpoint left it: 3 more holding slots fire it.
  AlertEngine resumed(rules);
  resumed.restore(s);
  resumed.rebase(reg);
  EXPECT_EQ(resumed.firing(), 1);
  EXPECT_EQ(resumed.critical_firing(), 1);
  EXPECT_EQ(resumed.total_fires(), 1u);
  resumed.evaluate(reg, 2, nullptr);
  resumed.evaluate(reg, 3, nullptr);
  EXPECT_EQ(resumed.firing(), 1);
  resumed.evaluate(reg, 4, nullptr);
  EXPECT_EQ(resumed.firing(), 2);

  // An engine built from an edited rule set must refuse the state.
  AlertEngine edited({gauge_rule("level", "t.level", 4.0, true),
                      gauge_rule("slowburn", "t.level", 0.0, false, 5)});
  EXPECT_THROW(edited.restore(s), CheckError);
}

TEST(AlertEngine, RulesHashCoversEveryField) {
  const AlertRule base = gauge_rule("a", "m", 1.0);
  const std::uint64_t h0 = AlertEngine({base}).rules_hash();
  AlertRule r = base;
  r.threshold = 2.0;
  EXPECT_NE(AlertEngine({r}).rules_hash(), h0);
  r = base;
  r.critical = true;
  EXPECT_NE(AlertEngine({r}).rules_hash(), h0);
  r = base;
  r.window_slots = 8;
  EXPECT_NE(AlertEngine({r}).rules_hash(), h0);
  r = base;
  r.op = AlertRule::Op::kLess;
  EXPECT_NE(AlertEngine({r}).rules_hash(), h0);
  r = base;
  r.metric = "m2";
  EXPECT_NE(AlertEngine({r}).rules_hash(), h0);
}

}  // namespace
}  // namespace gc::obs
