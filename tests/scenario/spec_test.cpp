// Declarative scenario specs (src/scenario, docs/SCENARIOS.md): schema
// validation with precise error paths, the canonical resolved dump (golden
// files in this directory), round-trip idempotence, and the config hash
// that stamps traces and checkpoints.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/check.hpp"

namespace gc::scenario {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string golden_path(const char* name) {
  return std::string(GC_SCENARIO_TEST_DIR) + "/" + name;
}

std::string example_path(const char* name) {
  return std::string(GC_SCENARIO_EXAMPLES_DIR) + "/" + name;
}

// The CheckError message for a spec that must not parse ("" = it parsed).
std::string parse_error(const std::string& text) {
  try {
    parse_scenario_json(text);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioSpec, EmptyObjectIsTheNamedPaperDefault) {
  const ScenarioSpec s = parse_scenario_json("{}");
  EXPECT_EQ(s.name, "default");
  const sim::ScenarioConfig d;
  EXPECT_EQ(s.config.num_users, d.num_users);
  EXPECT_EQ(s.config.num_sessions, d.num_sessions);
  EXPECT_EQ(s.config.seed, d.seed);
  EXPECT_DOUBLE_EQ(s.config.session_rate_bps, d.session_rate_bps);
  EXPECT_DOUBLE_EQ(s.config.area_m, d.area_m);
  EXPECT_EQ(s.config.multihop, d.multihop);
  EXPECT_EQ(s.config.renewables, d.renewables);
}

// The committed golden files pin the canonical dump byte for byte; any
// schema or formatting change must be a deliberate golden update.
TEST(ScenarioSpec, GoldenDefaultResolvedDump) {
  EXPECT_EQ(to_json(parse_scenario_json("{}")),
            slurp(golden_path("golden_default.json")));
}

TEST(ScenarioSpec, GoldenDiurnalSolarTouResolvedDump) {
  const ScenarioSpec s =
      load_scenario_file(example_path("diurnal_solar_tou.json"));
  EXPECT_EQ(to_json(s), slurp(golden_path("golden_diurnal_solar_tou.json")));
}

TEST(ScenarioSpec, GoldenHetnetSleepTouResolvedDump) {
  const ScenarioSpec s =
      load_scenario_file(example_path("hetnet_sleep_tou.json"));
  EXPECT_EQ(to_json(s), slurp(golden_path("golden_hetnet_sleep_tou.json")));
}

TEST(ScenarioSpec, RoundTripIsIdempotentForEveryExample) {
  for (const char* name :
       {"paper_baseline.json", "hex_16bs_500users.json",
        "diurnal_solar_tou.json", "flash_crowd.json",
        "hetnet_sleep_tou.json", "hex_16bs_500users_sleep.json"}) {
    const ScenarioSpec s = load_scenario_file(example_path(name));
    const std::string once = to_json(s);
    const ScenarioSpec reparsed = parse_scenario_json(once);
    EXPECT_EQ(to_json(reparsed), once) << name;
    EXPECT_EQ(reparsed.name, s.name) << name;
    EXPECT_EQ(scenario_hash(reparsed), scenario_hash(s)) << name;
  }
}

TEST(ScenarioSpec, ErrorsNamePathAndDomain) {
  EXPECT_NE(parse_error(R"({"topology":{"cells":{"rows":0}}})")
                .find("topology.cells.rows: expected int >= 1"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"traffic":{"rate_bps":-5}})")
                .find("traffic.rate_bps: expected number > 0"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"traffic":{"rate_bps":"fast"}})")
                .find("traffic.rate_bps"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"energy":{"user":{"connect_probability":2}}})")
                .find("energy.user.connect_probability"),
            std::string::npos);
}

TEST(ScenarioSpec, UnknownKeysRejectedWithAllowedSet) {
  const std::string root = parse_error(R"({"bogus":1})");
  EXPECT_NE(root.find("unknown key \"bogus\""), std::string::npos);
  EXPECT_NE(root.find("allowed:"), std::string::npos);
  const std::string nested = parse_error(R"({"traffic":{"burstiness":2}})");
  EXPECT_NE(nested.find("traffic"), std::string::npos);
  EXPECT_NE(nested.find("unknown key \"burstiness\""), std::string::npos);
}

TEST(ScenarioSpec, EnumErrorsListTheChoices) {
  const std::string e = parse_error(R"({"traffic":{"kind":"sawtooth"}})");
  EXPECT_NE(e.find("traffic.kind"), std::string::npos);
  for (const char* choice : {"constant", "diurnal", "bursty", "flash_crowd"})
    EXPECT_NE(e.find(choice), std::string::npos) << choice;
}

TEST(ScenarioSpec, NameRestrictedToSafeCharacters) {
  EXPECT_NE(parse_error(R"({"name":"has space"})").find("name"),
            std::string::npos);
  EXPECT_NE(parse_error("{\"name\":\"" + std::string(65, 'a') + "\"}")
                .find("64"),
            std::string::npos);
  EXPECT_EQ(parse_scenario_json(R"({"name":"ok-1.2_b"})").name, "ok-1.2_b");
}

TEST(ScenarioSpec, TraceTariffRequiresMultipliers) {
  EXPECT_NE(parse_error(R"({"tariff":{"kind":"trace"}})").find("tariff"),
            std::string::npos);
  const ScenarioSpec s = parse_scenario_json(
      R"({"tariff":{"kind":"trace","multipliers":[1.0,2.0]}})");
  ASSERT_EQ(s.config.tariff_multipliers.size(), 2u);
  EXPECT_DOUBLE_EQ(s.config.tariff_multipliers[1], 2.0);
}

TEST(ScenarioSpec, TimeOfUseTariffResolvesToTrace) {
  const ScenarioSpec tou = parse_scenario_json(
      R"({"tariff":{"kind":"time_of_use","slots_per_day":4,
          "peak_begin":1,"peak_end":3,"peak_mult":2.0}})");
  ASSERT_EQ(tou.config.tariff_multipliers.size(), 4u);
  EXPECT_DOUBLE_EQ(tou.config.tariff_multipliers[0], 1.0);
  EXPECT_DOUBLE_EQ(tou.config.tariff_multipliers[1], 2.0);
  // The resolved dump writes the trace, so the TOU form and its expansion
  // serialize (and hash) identically.
  const ScenarioSpec trace = parse_scenario_json(
      R"({"tariff":{"kind":"trace","multipliers":[1.0,2.0,2.0,1.0]}})");
  EXPECT_EQ(to_json(tou), to_json(trace));
  EXPECT_EQ(scenario_hash(tou), scenario_hash(trace));
}

TEST(ScenarioSpec, HashIgnoresNameAndTracksConfig) {
  const ScenarioSpec a = parse_scenario_json("{}");
  const ScenarioSpec b = parse_scenario_json(R"({"name":"renamed"})");
  const ScenarioSpec c = parse_scenario_json(R"({"seed":43})");
  EXPECT_EQ(scenario_hash(a), scenario_hash(b));
  EXPECT_NE(scenario_hash(a), scenario_hash(c));
  const std::string hex = hash_hex(scenario_hash(a));
  ASSERT_EQ(hex.size(), 18u);
  EXPECT_EQ(hex.rfind("0x", 0), 0u);
}

TEST(ScenarioSpec, FileErrorsNameTheFile) {
  try {
    load_scenario_file("/nonexistent/dir/spec.json");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("spec.json"), std::string::npos);
  }
  const std::string bad = testing::TempDir() + "gc_spec_test_malformed.json";
  std::ofstream(bad) << "{ not json";
  try {
    load_scenario_file(bad);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("gc_spec_test_malformed.json"),
              std::string::npos);
  }
  std::remove(bad.c_str());
}

TEST(ScenarioSpec, BsTiersAndSleepParse) {
  const ScenarioSpec s = parse_scenario_json(R"({
    "topology": {"layout": "hex_grid",
                 "cells": {"rows": 2, "cols": 2, "radius_m": 400}},
    "bs": {
      "tiers": [
        {"name": "macro", "count": 1, "const_w": 80, "can_sleep": false},
        {"name": "small", "count": 3, "const_w": 20, "sleep_power_w": 1.5,
         "wake_latency_slots": 2}
      ],
      "sleep": {"policy": "hysteresis", "sleep_threshold": 2,
                "wake_threshold": 8, "min_dwell_slots": 4}
    }
  })");
  ASSERT_EQ(s.config.bs_tiers.size(), 2u);
  EXPECT_EQ(s.config.bs_tiers[0].name, "macro");
  EXPECT_FALSE(s.config.bs_tiers[0].can_sleep);
  EXPECT_DOUBLE_EQ(s.config.bs_tiers[1].sleep_power_w, 1.5);
  EXPECT_EQ(s.config.bs_tiers[1].wake_latency_slots, 2);
  EXPECT_EQ(s.config.bs_sleep.policy, policy::SleepPolicy::Hysteresis);
  EXPECT_EQ(s.config.bs_sleep.min_dwell_slots, 4);
}

TEST(ScenarioSpec, BsSectionErrorsNamePathAndDomain) {
  // Element paths index into the tier array.
  EXPECT_NE(parse_error(R"({"bs":{"tiers":[{"count":0}]}})")
                .find("bs.tiers[0].count: expected int >= 1"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"bs":{"tiers":[{"watts":3}]}})")
                .find("unknown key \"watts\""),
            std::string::npos);
  // An inverted hysteresis band is refused at parse time.
  EXPECT_NE(parse_error(R"({"bs":{"sleep":{"sleep_threshold":9,
                            "wake_threshold":1}}})")
                .find("wake_threshold must be >= sleep_threshold"),
            std::string::npos);
  // Bad policy names list the accepted set.
  const std::string e =
      parse_error(R"({"bs":{"sleep":{"policy":"naps"}}})");
  EXPECT_NE(e.find("bs.sleep.policy"), std::string::npos);
  for (const char* choice :
       {"always-on", "threshold", "hysteresis", "drift-plus-penalty"})
    EXPECT_NE(e.find(choice), std::string::npos) << choice;
}

TEST(ScenarioSpec, SleepBlockIsBehavioralTiersAreStructural) {
  const ScenarioSpec plain = parse_scenario_json("{}");
  // An explicit all-default bs block serializes away: the dump (and hash)
  // match a spec that never mentioned it.
  const ScenarioSpec defaulted = parse_scenario_json(
      R"({"bs":{"sleep":{"policy":"always-on"}}})");
  EXPECT_EQ(to_json(defaulted), to_json(plain));
  EXPECT_EQ(scenario_hash(defaulted), scenario_hash(plain));
  // A live sleep block changes the full hash but not the structural one —
  // it is hot-swappable like the tariff.
  const ScenarioSpec sleeping = parse_scenario_json(
      R"({"bs":{"sleep":{"policy":"threshold"}}})");
  EXPECT_NE(scenario_hash(sleeping), scenario_hash(plain));
  EXPECT_EQ(scenario_structural_hash(sleeping),
            scenario_structural_hash(plain));
  // Tiers rewrite the power model, so they are structural.
  const ScenarioSpec tiered = parse_scenario_json(
      R"({"bs":{"tiers":[{"count":1,"const_w":80}]}})");
  EXPECT_NE(scenario_structural_hash(tiered),
            scenario_structural_hash(plain));
}

TEST(ScenarioSpec, GeneratorBlocksParse) {
  const ScenarioSpec s = parse_scenario_json(R"({
    "topology": {
      "layout": "hex_grid",
      "cells": {"rows": 3, "cols": 2, "radius_m": 350},
      "users": {"count": 40, "placement": "clustered",
                "hotspots": 2, "hotspot_sigma_m": 90,
                "hotspot_fraction": 0.6}
    },
    "traffic": {"kind": "bursty", "on_mult": 3.0, "block_slots": 16},
    "renewables": {"kind": "wind", "weibull_shape": 1.8}
  })");
  using sim::TopologySpec;
  using sim::TrafficSpec;
  using sim::RenewableSpec;
  EXPECT_EQ(s.config.topology.layout, TopologySpec::Layout::HexGrid);
  EXPECT_EQ(s.config.topology.rows, 3);
  EXPECT_EQ(s.config.topology.placement, TopologySpec::Placement::Clustered);
  EXPECT_EQ(s.config.num_users, 40);
  EXPECT_EQ(s.config.traffic.kind, TrafficSpec::Kind::Bursty);
  EXPECT_DOUBLE_EQ(s.config.traffic.on_mult, 3.0);
  EXPECT_EQ(s.config.traffic.block_slots, 16);
  EXPECT_EQ(s.config.renewable.kind, RenewableSpec::Kind::Wind);
  EXPECT_DOUBLE_EQ(s.config.renewable.weibull_shape, 1.8);
}

// Every committed spec's full and structural hash, recorded from the
// canonical dump. The hashes stamp traces and checkpoints, so a schema
// refactor must leave each of them unchanged.
TEST(ScenarioSpec, HashesArePinned) {
  const struct {
    std::string path;
    const char* full;
    const char* structural;
  } pins[] = {
      {example_path("paper_baseline.json"),
       "0xccee7e8a6c734b48", "0xad443838f3b4827f"},
      {example_path("hex_16bs_500users.json"),
       "0x34611722e8a36cea", "0xaf45a34e161437b9"},
      {example_path("hex_16bs_500users_sleep.json"),
       "0xdaa6493ef0c06182", "0x88e579f270a4dd3d"},
      {example_path("hex_36bs_1000users.json"),
       "0x2f07dd2d15f4e3f4", "0x485d1b8deeeff97f"},
      {example_path("diurnal_solar_tou.json"),
       "0x44328c61ba39fbfb", "0xc89087d00bc35158"},
      {example_path("flash_crowd.json"),
       "0x69fc81a7d0b1b008", "0xcf8a64ce0006ff42"},
      {example_path("hetnet_sleep_tou.json"),
       "0x662a862f21fcf90d", "0x1c9211897ee33eb9"},
      {golden_path("golden_default.json"),
       "0xccee7e8a6c734b48", "0xad443838f3b4827f"},
      {golden_path("golden_diurnal_solar_tou.json"),
       "0x44328c61ba39fbfb", "0xc89087d00bc35158"},
      {golden_path("golden_hetnet_sleep_tou.json"),
       "0x662a862f21fcf90d", "0x1c9211897ee33eb9"},
  };
  for (const auto& p : pins) {
    const ScenarioSpec s = load_scenario_file(p.path);
    EXPECT_EQ(hash_hex(scenario_hash(s)), p.full) << p.path;
    EXPECT_EQ(hash_hex(scenario_structural_hash(s)), p.structural) << p.path;
  }
}

// The --reload-scenario refusal names the first differing structural
// field; workload-only edits (traffic shape, tariff, sleep) are no
// difference at all.
TEST(ScenarioSpec, FirstStructuralDifferenceNamesThePath) {
  const auto diff = [](const std::string& a, const std::string& b) {
    return first_structural_difference(parse_scenario_json(a),
                                       parse_scenario_json(b));
  };
  EXPECT_EQ(diff("{}", "{}"), "");
  EXPECT_EQ(diff("{}", R"({"seed":43})"), "seed");
  EXPECT_EQ(diff("{}", R"({"topology":{"cells":{"rows":3}}})"),
            "topology.cells.rows");
  EXPECT_EQ(diff("{}", R"({"energy":{"bs":{"battery":{"capacity_j":9}}}})"),
            "energy.bs.battery.capacity_j");
  EXPECT_EQ(diff("{}", R"({"traffic":{"sessions":7}})"), "traffic.sessions");
  const std::string one_tier =
      R"({"bs":{"tiers":[{"count":1,"tx_max_w":20}]}})";
  EXPECT_EQ(diff(one_tier, R"({"bs":{"tiers":[{"count":1,"tx_max_w":30}]}})"),
            "bs.tiers.tx_max_w");
  EXPECT_EQ(diff(one_tier, R"({"bs":{"tiers":[{"count":1,"tx_max_w":20},
                                               {"count":2}]}})"),
            "bs.tiers");
  EXPECT_EQ(diff(R"({"name":"a","traffic":{"sessions":3}})",
                 R"({"name":"b","traffic":{"sessions":3,"kind":"bursty",
                     "rate_bps":5e4,"on_mult":2},
                     "tariff":{"kind":"trace","multipliers":[1,3]},
                     "bs":{"sleep":{"policy":"threshold"}}})"),
            "");
}

// Adding the first tier is named as a tier change (bs.tiers), and a tier
// must say how many base stations it covers.
TEST(ScenarioSpec, TierCountIsStructuralAndRequired) {
  EXPECT_EQ(first_structural_difference(
                parse_scenario_json("{}"),
                parse_scenario_json(R"({"bs":{"tiers":[{"count":1}]}})")),
            "bs.tiers");
  EXPECT_NE(parse_error(R"({"bs":{"tiers":[{"const_w":80}]}})")
                .find("bs.tiers[0].count: required key missing"),
            std::string::npos);
}

}  // namespace
}  // namespace gc::scenario
