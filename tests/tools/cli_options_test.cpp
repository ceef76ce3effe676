#include "cli_options.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "policy/sleep.hpp"
#include "scenario/spec.hpp"
#include "sim/checkpoint.hpp"
#include "util/check.hpp"

namespace gc::cli {
namespace {

ParseResult parse(std::initializer_list<std::string> args) {
  return parse_args(std::vector<std::string>(args));
}

// Writes `text` to a temp file and returns its path (caller removes it).
std::string write_temp(const char* name, const std::string& text) {
  const std::string path = testing::TempDir() + "gc_cli_test_" + name;
  std::ofstream(path) << text;
  return path;
}

TEST(CliOptions, DefaultsWhenNoFlags) {
  const auto r = parse({});
  ASSERT_TRUE(r.options);
  EXPECT_EQ(r.options->slots, 100);
  EXPECT_DOUBLE_EQ(r.options->V, 3.0);
  EXPECT_EQ(r.options->scenario.num_users, 20);
  EXPECT_FALSE(r.options->validate);
  EXPECT_TRUE(r.options->csv_path.empty());
}

TEST(CliOptions, ParsesScenarioFlags) {
  const auto r = parse({"--users", "30", "--sessions", "6", "--rate-kbps",
                        "250", "--area", "1500", "--seed", "9"});
  ASSERT_TRUE(r.options) << r.error;
  EXPECT_EQ(r.options->scenario.num_users, 30);
  EXPECT_EQ(r.options->scenario.num_sessions, 6);
  EXPECT_DOUBLE_EQ(r.options->scenario.session_rate_bps, 250e3);
  EXPECT_DOUBLE_EQ(r.options->scenario.area_m, 1500.0);
  EXPECT_EQ(r.options->scenario.seed, 9u);
}

TEST(CliOptions, ParsesArchitectureSwitches) {
  const auto r = parse({"--multihop", "0", "--renewables", "0"});
  ASSERT_TRUE(r.options);
  EXPECT_FALSE(r.options->scenario.multihop);
  EXPECT_FALSE(r.options->scenario.renewables);
}

TEST(CliOptions, ParsesRadiosAndPhy) {
  const auto r = parse({"--bs-radios", "3", "--user-radios", "2", "--phy",
                        "adaptive"});
  ASSERT_TRUE(r.options);
  EXPECT_EQ(r.options->scenario.bs_radios, 3);
  EXPECT_EQ(r.options->scenario.user_radios, 2);
  EXPECT_EQ(r.options->scenario.phy_policy,
            core::ModelConfig::PhyPolicy::MaxPowerAdaptiveRate);
}

TEST(CliOptions, ParsesTariffSpec) {
  const auto r = parse({"--tariff", "8:20:1.5"});
  ASSERT_TRUE(r.options) << r.error;
  const auto& t = r.options->scenario.tariff_multipliers;
  ASSERT_EQ(t.size(), 24u);
  EXPECT_DOUBLE_EQ(t[7], 1.0);
  EXPECT_DOUBLE_EQ(t[8], 1.5);
  EXPECT_DOUBLE_EQ(t[19], 1.5);
  EXPECT_DOUBLE_EQ(t[20], 1.0);
}

TEST(CliOptions, RejectsBadTariff) {
  for (const char* bad : {"20:8:1.5", "8:25:1.5", "8:20:0", "junk", "8:20"})
    EXPECT_FALSE(parse({"--tariff", bad}).options) << bad;
}

TEST(CliOptions, ParsesRunFlags) {
  const auto r = parse({"--V", "4.5", "--lambda", "25", "--slots", "200",
                        "--input-seed", "11", "--csv", "out.csv",
                        "--validate", "--quiet"});
  ASSERT_TRUE(r.options);
  EXPECT_DOUBLE_EQ(r.options->V, 4.5);
  EXPECT_DOUBLE_EQ(r.options->scenario.lambda, 25.0);
  EXPECT_EQ(r.options->slots, 200);
  EXPECT_EQ(r.options->input_seed, 11u);
  EXPECT_EQ(r.options->csv_path, "out.csv");
  EXPECT_TRUE(r.options->validate);
  EXPECT_TRUE(r.options->quiet);
}

TEST(CliOptions, HelpShortCircuits) {
  const auto r = parse({"--help", "--users", "junk"});
  ASSERT_TRUE(r.options);
  EXPECT_TRUE(r.options->help);
}

TEST(CliOptions, RejectsUnknownFlag) {
  const auto r = parse({"--frobnicate", "1"});
  EXPECT_FALSE(r.options);
  EXPECT_NE(r.error.find("--frobnicate"), std::string::npos);
}

TEST(CliOptions, RejectsMissingValue) {
  const auto r = parse({"--users"});
  EXPECT_FALSE(r.options);
  EXPECT_NE(r.error.find("missing value"), std::string::npos);
}

TEST(CliOptions, RejectsBadValues) {
  EXPECT_FALSE(parse({"--users", "0"}).options);
  EXPECT_FALSE(parse({"--users", "abc"}).options);
  EXPECT_FALSE(parse({"--multihop", "2"}).options);
  EXPECT_FALSE(parse({"--phy", "telepathy"}).options);
  EXPECT_FALSE(parse({"--slots", "-1"}).options);
  EXPECT_FALSE(parse({"--rate-kbps", "-5"}).options);
}

TEST(CliOptions, AcceptsZeroSlotsAsDryRun) {
  const auto r = parse({"--slots", "0"});
  ASSERT_TRUE(r.options);
  EXPECT_EQ(r.options->slots, 0);
}

TEST(CliOptions, ParsesTraceAndReport) {
  const auto r = parse({"--trace", "out.jsonl", "--report"});
  ASSERT_TRUE(r.options);
  EXPECT_EQ(r.options->trace_path, "out.jsonl");
  EXPECT_TRUE(r.options->report);
}

TEST(CliOptions, ParsesMobility) {
  const auto r = parse({"--mobility", "5"});
  ASSERT_TRUE(r.options);
  EXPECT_DOUBLE_EQ(r.options->mobility_mps, 5.0);
  EXPECT_FALSE(parse({"--mobility", "-1"}).options);
}

TEST(CliOptions, UsageMentionsEveryFlag) {
  const std::string u = usage();
  for (const char* flag :
       {"--users", "--sessions", "--rate-kbps", "--area", "--seed",
        "--multihop", "--renewables", "--bs-radios", "--user-radios",
        "--phy", "--tariff", "--V", "--lambda", "--slots", "--input-seed",
        "--mobility", "--validate", "--csv", "--quiet", "--help",
        "--faults", "--checkpoint", "--checkpoint-every", "--resume"})
    EXPECT_NE(u.find(flag), std::string::npos) << flag;
}

TEST(CliOptions, ParsesRobustnessFlags) {
  const auto r = parse({"--faults", "spec.json", "--checkpoint", "run.ckpt",
                        "--checkpoint-every", "500", "--resume", "old.ckpt"});
  ASSERT_TRUE(r.options);
  EXPECT_EQ(r.options->faults_path, "spec.json");
  EXPECT_EQ(r.options->checkpoint_path, "run.ckpt");
  EXPECT_EQ(r.options->checkpoint_every, 500);
  EXPECT_EQ(r.options->resume_path, "old.ckpt");
  EXPECT_FALSE(parse({"--checkpoint-every", "-3"}).options);
  EXPECT_FALSE(parse({"--checkpoint"}).options);  // missing value
}

TEST(CliOptions, ParsesObservabilityFlags) {
  const auto r = parse({"--trace-top-k", "5", "--strict-bounds",
                        "--snapshot", "live.json", "--snapshot-every", "100",
                        "--spans", "spans.json"});
  ASSERT_TRUE(r.options) << r.error;
  EXPECT_EQ(r.options->trace_top_k, 5);
  EXPECT_TRUE(r.options->strict_bounds);
  EXPECT_EQ(r.options->snapshot_path, "live.json");
  EXPECT_EQ(r.options->snapshot_every, 100);
  EXPECT_EQ(r.options->spans_path, "spans.json");
  const auto d = parse({});
  ASSERT_TRUE(d.options);
  EXPECT_EQ(d.options->trace_top_k, 3);
  EXPECT_FALSE(d.options->strict_bounds);
  EXPECT_TRUE(d.options->snapshot_path.empty());
  EXPECT_EQ(d.options->snapshot_every, 0);
  // --trace-top-k 0 is valid: trace records without the drill-down array.
  EXPECT_EQ(parse({"--trace-top-k", "0"}).options->trace_top_k, 0);
}

TEST(CliOptions, ParsesProfileAndLpLog) {
  const auto r = parse({"--profile", "prof.json", "--lp-log", "lp.jsonl"});
  ASSERT_TRUE(r.options) << r.error;
  EXPECT_EQ(r.options->profile_path, "prof.json");
  EXPECT_EQ(r.options->lp_log_path, "lp.jsonl");
  const auto d = parse({});
  ASSERT_TRUE(d.options);
  EXPECT_TRUE(d.options->profile_path.empty());
  EXPECT_TRUE(d.options->lp_log_path.empty());
  EXPECT_FALSE(parse({"--profile", ""}).options);
  EXPECT_FALSE(parse({"--lp-log", ""}).options);
}

// Two outputs sharing a path would silently clobber each other; the parse
// rejects every colliding pair up front, naming both flags.
TEST(CliOptions, RejectsCollidingOutputPaths) {
  const auto a = parse({"--profile", "out.json", "--spans", "out.json"});
  EXPECT_FALSE(a.options);
  EXPECT_NE(a.error.find("--profile"), std::string::npos) << a.error;
  EXPECT_NE(a.error.find("--spans"), std::string::npos) << a.error;
  EXPECT_NE(a.error.find("out.json"), std::string::npos) << a.error;
  EXPECT_FALSE(parse({"--csv", "x", "--trace", "x"}).options);
  EXPECT_FALSE(parse({"--lp-log", "y", "--snapshot", "y"}).options);
  EXPECT_FALSE(parse({"--checkpoint", "z", "--profile", "z"}).options);
  // Distinct paths for everything is the normal case.
  EXPECT_TRUE(parse({"--profile", "a.json", "--spans", "b.json", "--csv",
                     "c.csv"})
                  .options);
}

TEST(CliOptions, UsageMentionsProfileAndLpLog) {
  const std::string u = usage();
  EXPECT_NE(u.find("--profile"), std::string::npos);
  EXPECT_NE(u.find("--lp-log"), std::string::npos);
}

// A cadence without a snapshot file has nothing to pace.
TEST(CliOptions, SnapshotEveryRequiresSnapshotPath) {
  const auto r = parse({"--snapshot-every", "50"});
  EXPECT_FALSE(r.options);
  EXPECT_NE(r.error.find("--snapshot-every"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("--snapshot"), std::string::npos) << r.error;
  EXPECT_TRUE(
      parse({"--snapshot", "s.json", "--snapshot-every", "50"}).options);
}

TEST(CliOptions, UsageMentionsObservabilityFlags) {
  const std::string u = usage();
  for (const char* flag : {"--trace-top-k", "--strict-bounds", "--snapshot",
                           "--snapshot-every", "--spans"})
    EXPECT_NE(u.find(flag), std::string::npos) << flag;
  EXPECT_NE(u.find("docs/OBSERVABILITY.md"), std::string::npos);
}

// Crash-safe service mode flags (docs/ROBUSTNESS.md "Operating long
// runs"): each dependency violation is rejected naming both flags.
TEST(CliOptions, ParsesServiceModeFlags) {
  const auto r = parse({"--checkpoint", "run.ckpt", "--supervise",
                        "--max-restarts", "7", "--restart-backoff-ms", "250"});
  ASSERT_TRUE(r.options) << r.error;
  EXPECT_TRUE(r.options->supervise);
  EXPECT_EQ(r.options->max_restarts, 7);
  EXPECT_EQ(r.options->restart_backoff_ms, 250);
  const auto d = parse({});
  ASSERT_TRUE(d.options);
  EXPECT_FALSE(d.options->supervise);
  EXPECT_EQ(d.options->max_restarts, 5);
  EXPECT_EQ(d.options->restart_backoff_ms, 500);
  EXPECT_TRUE(d.options->reload_scenario_path.empty());
}

TEST(CliOptions, CheckpointCadenceFlagsRequireCheckpoint) {
  // A zero cadence is meaningless — the former "0 = final only" spelling is
  // simply omitting the flag.
  const auto a = parse({"--checkpoint", "c", "--checkpoint-every", "0"});
  EXPECT_FALSE(a.options);
  EXPECT_NE(a.error.find("--checkpoint-every"), std::string::npos);
  EXPECT_NE(a.error.find("int >= 1"), std::string::npos) << a.error;
  const auto b = parse({"--checkpoint-every", "10"});
  EXPECT_FALSE(b.options);
  EXPECT_NE(b.error.find("--checkpoint-every"), std::string::npos);
  EXPECT_NE(b.error.find("--checkpoint"), std::string::npos) << b.error;
}

TEST(CliOptions, SuperviseRequiresCheckpointAndRejectsResume) {
  const auto a = parse({"--supervise"});
  EXPECT_FALSE(a.options);
  EXPECT_NE(a.error.find("--supervise"), std::string::npos);
  EXPECT_NE(a.error.find("--checkpoint"), std::string::npos) << a.error;
  const auto b =
      parse({"--supervise", "--checkpoint", "c", "--resume", "old"});
  EXPECT_FALSE(b.options);
  EXPECT_NE(b.error.find("--supervise"), std::string::npos);
  EXPECT_NE(b.error.find("--resume"), std::string::npos) << b.error;
  EXPECT_TRUE(parse({"--supervise", "--checkpoint", "c"}).options);
}

TEST(CliOptions, ReloadScenarioRequiresScenarioAndSupervise) {
  const std::string path = write_temp("reload_base.json", "{}");
  const auto a = parse({"--reload-scenario", "live.json"});
  EXPECT_FALSE(a.options);
  EXPECT_NE(a.error.find("--reload-scenario"), std::string::npos);
  EXPECT_NE(a.error.find("--scenario"), std::string::npos) << a.error;
  const auto b = parse({"--scenario", path, "--reload-scenario", "l.json"});
  EXPECT_FALSE(b.options);
  EXPECT_NE(b.error.find("--supervise"), std::string::npos) << b.error;
  const auto ok = parse({"--scenario", path, "--reload-scenario", "l.json",
                         "--supervise", "--checkpoint", "ck"});
  EXPECT_TRUE(ok.options) << ok.error;
  EXPECT_EQ(ok.options->reload_scenario_path, "l.json");
  std::remove(path.c_str());
}

TEST(CliOptions, ScenarioFileCarriesStructuralHash) {
  const std::string path = write_temp(
      "structural.json",
      R"({"name":"s","traffic":{"kind":"diurnal","amplitude":0.5}})");
  const auto r = parse({"--scenario", path});
  ASSERT_TRUE(r.options) << r.error;
  EXPECT_NE(r.options->scenario_structural_hash, 0u);
  // Structural != full: the structural hash ignores the traffic shape.
  EXPECT_NE(r.options->scenario_structural_hash, r.options->scenario_hash);
  std::remove(path.c_str());
}

TEST(CliOptions, UsageMentionsServiceModeFlags) {
  const std::string u = usage();
  for (const char* flag :
       {"--supervise", "--max-restarts", "--restart-backoff-ms",
        "--reload-scenario"})
    EXPECT_NE(u.find(flag), std::string::npos) << flag;
  EXPECT_NE(u.find("Operating long runs"), std::string::npos);
}

// Satellite 2: every value flag's parse failure names the offending flag
// AND the accepted domain, not a generic "bad value".
TEST(CliOptions, EveryFlagFailureNamesFlagAndDomain) {
  const struct {
    const char* flag;
    const char* bad;
    const char* domain;
  } cases[] = {
      {"--users", "0", "int >= 1"},
      {"--sessions", "x", "int >= 1"},
      {"--rate-kbps", "-5", "number > 0"},
      {"--area", "0", "number > 0"},
      {"--seed", "-1", "int >= 0"},
      {"--multihop", "2", "0 or 1"},
      {"--renewables", "yes", "0 or 1"},
      {"--bs-radios", "0", "int >= 1"},
      {"--user-radios", "1.5", "int >= 1"},
      {"--phy", "telepathy", "\"min\" or \"adaptive\""},
      {"--tariff", "20:8:1.5", "B:E:M"},
      {"--mobility", "-1", "number >= 0"},
      {"--V", "-2", "number >= 0"},
      {"--lambda", "abc", "number >= 0"},
      {"--slots", "-1", "int >= 0"},
      {"--input-seed", "-7", "int >= 0"},
      {"--csv", "", "non-empty file path"},
      {"--trace", "", "non-empty file path"},
      {"--faults", "", "non-empty file path"},
      {"--checkpoint", "", "non-empty file path"},
      {"--checkpoint-every", "x", "int >= 1"},
      {"--max-restarts", "-1", "int >= 0"},
      {"--restart-backoff-ms", "x", "int >= 0"},
      {"--reload-scenario", "", "non-empty file path"},
      {"--resume", "", "non-empty file path"},
      {"--scenario", "", "non-empty file path"},
      {"--trace-top-k", "-1", "int >= 0"},
      {"--trace-top-k", "many", "int >= 0"},
      {"--snapshot", "", "non-empty file path"},
      {"--snapshot-every", "0", "int >= 1"},
      {"--snapshot-every", "2.5", "int >= 1"},
      {"--spans", "", "non-empty file path"},
      {"--profile", "", "non-empty file path"},
      {"--lp-log", "", "non-empty file path"},
      {"--policy", "naps",
       "\"always-on\", \"threshold\", \"hysteresis\" or "
       "\"drift-plus-penalty\""},
      {"--sleep-threshold", "-1", "number >= 0"},
      {"--wake-threshold", "x", "number >= 0"},
      {"--sleep-dwell", "-1", "int >= 0"},
      {"--min-awake-bs", "0", "int >= 1"},
      {"--switch-cost-weight", "-2", "number >= 0"},
  };
  for (const auto& c : cases) {
    const auto r = parse({c.flag, c.bad});
    EXPECT_FALSE(r.options) << c.flag;
    EXPECT_NE(r.error.find(c.flag), std::string::npos)
        << c.flag << ": " << r.error;
    EXPECT_NE(r.error.find(c.domain), std::string::npos)
        << c.flag << ": " << r.error;
  }
}

// Numbers from the command line are finite, integers are in range before
// they are cast, and seeds are exact integers; every rejection names the
// flag.
TEST(CliOptions, RejectsNonFiniteAndOutOfRangeNumbers) {
  const auto rejected = [](const std::string& flag, const std::string& v) {
    const auto r = parse_args({flag, v});
    EXPECT_FALSE(r.options) << flag << " " << v;
    EXPECT_NE(r.error.find(flag), std::string::npos)
        << flag << " " << v << ": " << r.error;
  };
  for (const char* flag : {"--V", "--mobility", "--lambda", "--rate-kbps",
                           "--area", "--sleep-threshold", "--wake-threshold",
                           "--switch-cost-weight"})
    for (const char* v : {"nan", "inf", "-inf", "1e400"}) rejected(flag, v);
  for (const char* flag : {"--slots", "--users", "--trace-top-k",
                           "--checkpoint-every", "--metrics-port"})
    for (const char* v : {"nan", "inf", "1e10", "-1e10", "1.5", "2147483648"})
      rejected(flag, v);
  for (const char* flag : {"--seed", "--input-seed"})
    for (const char* v : {"nan", "inf", "1e30", "1.5", "-1", "1e3", " 7",
                          "18446744073709551616"})
      rejected(flag, v);

  const auto r = parse({"--slots", "2147483647", "--input-seed",
                        "18446744073709551615", "--mobility", "1e300"});
  ASSERT_TRUE(r.options) << r.error;
  EXPECT_EQ(r.options->slots, 2147483647);
  EXPECT_EQ(r.options->input_seed, 18446744073709551615u);
  EXPECT_EQ(r.options->mobility_mps, 1e300);
}

TEST(CliOptions, LoadsScenarioFile) {
  const std::string path = write_temp(
      "ok.json", R"({"name":"from-file","seed":5,"traffic":{"sessions":7}})");
  const auto r = parse({"--scenario", path});
  ASSERT_TRUE(r.options) << r.error;
  EXPECT_EQ(r.options->scenario_path, path);
  EXPECT_EQ(r.options->scenario_name, "from-file");
  EXPECT_NE(r.options->scenario_hash, 0u);
  EXPECT_EQ(r.options->scenario.seed, 5u);
  EXPECT_EQ(r.options->scenario.num_sessions, 7);
  std::remove(path.c_str());
}

TEST(CliOptions, ScenarioFileErrorsSurfaceThroughParse) {
  const std::string path =
      write_temp("bad.json", R"({"topology":{"cells":{"rows":0}}})");
  const auto r = parse({"--scenario", path});
  EXPECT_FALSE(r.options);
  EXPECT_NE(r.error.find("topology.cells.rows"), std::string::npos)
      << r.error;
  std::remove(path.c_str());
  EXPECT_FALSE(parse({"--scenario", "/nonexistent/spec.json"}).options);
}

// Satellite 1: shaping flags conflict with --scenario regardless of the
// order they appear in; run flags (--slots, --trace, ...) compose fine.
TEST(CliOptions, ScenarioConflictsWithShapingFlagsOrderIndependent) {
  const std::string path = write_temp("conflict.json", "{}");
  for (const auto& args :
       {std::vector<std::string>{"--scenario", path, "--users", "5"},
        std::vector<std::string>{"--users", "5", "--scenario", path}}) {
    const auto r = parse_args(args);
    EXPECT_FALSE(r.options);
    EXPECT_NE(r.error.find("--scenario"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("--users"), std::string::npos) << r.error;
  }
  const auto multi = parse({"--scenario", path, "--seed", "1", "--tariff",
                            "8:20:2", "--lambda", "5"});
  EXPECT_FALSE(multi.options);
  EXPECT_NE(multi.error.find("--seed"), std::string::npos);
  EXPECT_NE(multi.error.find("--tariff"), std::string::npos);
  EXPECT_NE(multi.error.find("--lambda"), std::string::npos);
  const auto ok = parse({"--scenario", path, "--slots", "10", "--V", "4",
                         "--trace", "t.jsonl"});
  EXPECT_TRUE(ok.options) << ok.error;
  std::remove(path.c_str());
}

TEST(CliOptions, PrintScenarioFlagParses) {
  const auto r = parse({"--print-scenario"});
  ASSERT_TRUE(r.options);
  EXPECT_TRUE(r.options->print_scenario);
  EXPECT_FALSE(parse({}).options->print_scenario);
}

TEST(CliOptions, UsageMentionsScenarioFlags) {
  const std::string u = usage();
  EXPECT_NE(u.find("--scenario"), std::string::npos);
  EXPECT_NE(u.find("--print-scenario"), std::string::npos);
  EXPECT_NE(u.find("docs/SCENARIOS.md"), std::string::npos);
}

// src/policy sleep flags are run-level overrides (like --V): they merge
// into scenario.bs_sleep after the parse loop, so they compose with
// --scenario in either order instead of conflicting like shaping flags.
TEST(CliOptions, ParsesSleepPolicyFlags) {
  const auto r =
      parse({"--policy", "hysteresis", "--sleep-threshold", "2",
             "--wake-threshold", "8", "--sleep-dwell", "5", "--min-awake-bs",
             "2", "--switch-cost-weight", "0.5"});
  ASSERT_TRUE(r.options) << r.error;
  const auto& s = r.options->scenario.bs_sleep;
  EXPECT_EQ(s.policy, policy::SleepPolicy::Hysteresis);
  EXPECT_DOUBLE_EQ(s.sleep_threshold, 2.0);
  EXPECT_DOUBLE_EQ(s.wake_threshold, 8.0);
  EXPECT_EQ(s.min_dwell_slots, 5);
  EXPECT_EQ(s.min_awake_bs, 2);
  EXPECT_DOUBLE_EQ(s.switch_cost_weight, 0.5);
  const auto d = parse({});
  ASSERT_TRUE(d.options);
  EXPECT_EQ(d.options->scenario.bs_sleep.policy,
            policy::SleepPolicy::AlwaysOn);
}

TEST(CliOptions, InvertedHysteresisBandIsRejected) {
  // Raising only the sleep threshold above the default wake threshold (4)
  // inverts the band; the rejection names both flags and the reason.
  const auto r = parse({"--sleep-threshold", "9"});
  EXPECT_FALSE(r.options);
  EXPECT_NE(r.error.find("--wake-threshold"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("--sleep-threshold"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("inverted"), std::string::npos) << r.error;
  EXPECT_TRUE(
      parse({"--sleep-threshold", "9", "--wake-threshold", "9"}).options);
}

TEST(CliOptions, SleepFlagsComposeWithScenarioOrderIndependent) {
  const std::string path = write_temp("sleep_over.json", "{}");
  for (const auto& args : {std::vector<std::string>{"--scenario", path,
                                                    "--policy", "threshold"},
                           std::vector<std::string>{"--policy", "threshold",
                                                    "--scenario", path}}) {
    const auto r = parse_args(args);
    ASSERT_TRUE(r.options) << r.error;
    EXPECT_EQ(r.options->scenario.bs_sleep.policy,
              policy::SleepPolicy::Threshold);
  }
  std::remove(path.c_str());
}

TEST(CliOptions, UsageMentionsSleepPolicyFlags) {
  const std::string u = usage();
  for (const char* flag :
       {"--policy", "--sleep-threshold", "--wake-threshold", "--sleep-dwell",
        "--min-awake-bs", "--switch-cost-weight"})
    EXPECT_NE(u.find(flag), std::string::npos) << flag;
}

TEST(CliOptions, ParsedScenarioBuilds) {
  const auto r = parse({"--users", "6", "--sessions", "2", "--bs-radios",
                        "2", "--tariff", "0:12:2"});
  ASSERT_TRUE(r.options);
  const auto model = r.options->scenario.build();
  EXPECT_EQ(model.num_nodes(), 8);
  EXPECT_EQ(model.num_radios(0), 2);
  EXPECT_DOUBLE_EQ(model.tariff_multiplier(0), 2.0);
}

// A flag-built run is identified like a --scenario file: by the hash of
// the spec --print-scenario prints for it.
TEST(CliOptions, FlagBuiltScenarioIsHashed) {
  const auto none = parse({});
  const auto seed = parse({"--seed", "2"});
  const auto lambda = parse({"--lambda", "4"});
  ASSERT_TRUE(none.options && seed.options && lambda.options);
  const scenario::ScenarioSpec empty = scenario::parse_scenario_json("{}");
  EXPECT_EQ(none.options->scenario_hash, scenario::scenario_hash(empty));
  EXPECT_EQ(none.options->scenario_structural_hash,
            scenario::scenario_structural_hash(empty));
  const std::uint64_t hashes[] = {none.options->scenario_hash,
                                  seed.options->scenario_hash,
                                  lambda.options->scenario_hash};
  for (std::size_t a = 0; a < std::size(hashes); ++a) {
    EXPECT_NE(hashes[a], 0u) << a;
    for (std::size_t b = a + 1; b < std::size(hashes); ++b)
      EXPECT_NE(hashes[a], hashes[b]) << a << " vs " << b;
  }
}

// The sleep-policy overrides are hashed with the spec they merge into
// (the spec --print-scenario prints), so a checkpoint of one policy is not
// resumed under another. They are workload fields: a hot-reload may keep
// the structure while the policy differs.
TEST(CliOptions, SleepFlagsArePartOfTheScenarioHash) {
  const auto none = parse({});
  const auto thr = parse({"--policy", "threshold"});
  const auto thr3 = parse({"--policy", "threshold", "--sleep-threshold", "3",
                           "--wake-threshold", "5"});
  ASSERT_TRUE(none.options && thr.options && thr3.options);
  EXPECT_NE(thr.options->scenario_hash, none.options->scenario_hash);
  EXPECT_NE(thr3.options->scenario_hash, thr.options->scenario_hash);
  EXPECT_EQ(thr.options->scenario_hash, parse({"--policy", "threshold"})
                                            .options->scenario_hash);
  EXPECT_EQ(thr.options->scenario_hash,
            scenario::scenario_hash(
                {thr.options->scenario_name, thr.options->scenario}));
  EXPECT_EQ(thr3.options->scenario_structural_hash,
            none.options->scenario_structural_hash);
  // The default policy spelled out is the default spec.
  EXPECT_EQ(parse({"--policy", "always-on"}).options->scenario_hash,
            none.options->scenario_hash);
}

// A checkpoint of one flag set cannot be resumed under another: the
// second run would otherwise continue under a different topology and
// admission threshold.
TEST(CliOptions, ResumeUnderDifferentScenarioFlagsIsRefused) {
  const std::string ckpt = testing::TempDir() + "gc_cli_test_flags.ckpt";
  // The run greencell_sim makes of a flag set: its scenario and identity.
  const auto job = [](std::initializer_list<std::string> args) {
    const auto r = parse(args);
    EXPECT_TRUE(r.options) << r.error;
    sim::SimJob j;
    j.scenario = r.options->scenario;
    j.V = r.options->V;
    j.slots = r.options->slots;
    j.sim.scenario_hash = r.options->scenario_hash;
    j.sim.scenario_structural_hash = r.options->scenario_structural_hash;
    return j;
  };
  sim::SimJob first = job({"--seed", "1", "--slots", "4"});
  first.sim.checkpoint_path = ckpt;
  sim::run_job(first);

  sim::SimJob other = job({"--seed", "2", "--lambda", "4", "--slots", "8"});
  other.sim.resume_path = ckpt;
  EXPECT_THROW(sim::run_job(other), CheckError);
  sim::SimJob same = job({"--seed", "1", "--slots", "8"});
  same.sim.resume_path = ckpt;
  EXPECT_NO_THROW(sim::run_job(same));
  for (const auto& g : sim::list_generations(ckpt))
    std::remove(g.file.c_str());
}

}  // namespace
}  // namespace gc::cli
