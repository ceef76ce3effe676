// Command-line interface for the simulator (tools/greencell_sim).
//
// The parser is separated from main() so it can be unit-tested; it maps
// flags onto ScenarioConfig fields and run parameters, returning either a
// parsed options object or a diagnostic.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace gc::cli {

struct Options {
  sim::ScenarioConfig scenario;
  // Declarative scenario (src/scenario, docs/SCENARIOS.md). When
  // scenario_path is set, `scenario` was loaded from that JSON file and
  // the scenario-shaping flags (--users, --seed, --tariff, ...) are
  // rejected: the file is the single source of truth. name/hash carry the
  // spec's identity, or a flag-built run's, into traces and checkpoints.
  std::string scenario_path;
  std::string scenario_name = "default";
  std::uint64_t scenario_hash = 0;
  // Structure-only subset of scenario_hash (topology/energy/algorithm
  // fields; traffic shape and tariff excluded) — what --reload-scenario
  // compares to decide whether a swap is safe.
  std::uint64_t scenario_structural_hash = 0;
  // --policy and the --sleep-* / --wake-threshold / --min-awake-bs /
  // --switch-cost-weight flags: run-level overrides of the spec's
  // bs.sleep block. They sit on top of whichever spec the run uses (a
  // --scenario file, the flag-built one, or a hot-reloaded swap), and
  // both hashes are taken of the merged spec, so they are part of the
  // run's identity.
  struct SleepOverrides {
    std::optional<policy::SleepPolicy> policy;
    std::optional<double> sleep_threshold, wake_threshold,
        switch_cost_weight;
    std::optional<int> min_dwell_slots, min_awake_bs;
    void apply(policy::SleepPolicyConfig& sleep) const;
  };
  SleepOverrides sleep_overrides;
  // --print-scenario: dump the resolved scenario JSON to stdout and exit.
  bool print_scenario = false;
  double V = 3.0;
  int slots = 100;
  // Max random-waypoint walking speed in m/s; 0 = static users.
  double mobility_mps = 0.0;
  std::uint64_t input_seed = 7;
  bool validate = false;
  bool quiet = false;
  std::string csv_path;    // empty = no CSV
  std::string trace_path;  // empty = no JSONL trace
  // How many worst-backlog nodes each trace record drills into (the
  // trace's top_backlog array); 0 = none.
  int trace_top_k = 3;
  // End-of-run observability report: every registered counter/timer
  // (see src/obs).
  bool report = false;
  // Theory auditor (docs/OBSERVABILITY.md): abort on the first violated
  // stability bound instead of counting it.
  bool strict_bounds = false;
  // Live telemetry: periodic atomic JSON snapshot (+ .prom twin); 0 =
  // final-only snapshot when snapshot_path is set.
  std::string snapshot_path;
  int snapshot_every = 0;
  // Span tracing: Chrome trace-event JSON written at the end of the run.
  std::string spans_path;
  // Hierarchical profile (docs/PERFORMANCE.md "Profiling workflow"):
  // gc.profile.v1 JSON at PATH plus collapsed-stack text at
  // PATH.collapsed, built from the same span stream.
  std::string profile_path;
  // Per-LP-solve JSONL stream (lp::JsonlSolveLog): one line per simplex
  // solve with context, dimensions, phase split and pivot accounting.
  std::string lp_log_path;

  // Live operations layer (docs/OBSERVABILITY.md "Operating live runs").
  // metrics_port: -1 = no HTTP exporter; 0 = bind an ephemeral loopback
  // port (requires --metrics-port-file so the chosen port is
  // discoverable); >= 1 = bind that port. metrics_port_file, when set,
  // receives the bound port as a single decimal line after the listener
  // is up. All three single-run features are rejected with --seeds > 1.
  int metrics_port = -1;
  std::string metrics_port_file;
  std::string events_path;  // structured event journal JSONL; empty = off
  std::string alerts_path;  // alert rule file (JSON); empty = no engine
  // Exit nonzero (code 3) after an otherwise-clean run during which any
  // alert fired. Requires --alerts.
  bool alerts_fatal = false;

  // Robustness (docs/ROBUSTNESS.md).
  std::string faults_path;      // JSON fault spec; empty = no fault injection
  std::string checkpoint_path;  // generation base; empty = no checkpoints
  int checkpoint_every = 0;     // 0 = only the final checkpoint
  std::string resume_path;      // empty = start from slot 0

  // Crash-safe service mode (docs/ROBUSTNESS.md "Operating long runs").
  // --supervise forks the run into a supervised child: abnormal deaths
  // restart it from the newest valid checkpoint (with exponential
  // backoff), SIGTERM/SIGINT shut it down gracefully, SIGHUP triggers a
  // scenario hot-reload. Requires --checkpoint; incompatible with
  // --resume (supervision always auto-resumes from the checkpoint path).
  bool supervise = false;
  int max_restarts = 5;         // crash restarts before the supervisor gives up
  int restart_backoff_ms = 500; // first restart backoff; doubles per crash
  // Scenario hot-reload source: on every (re)start the supervised child
  // re-reads this spec; only structurally-identical swaps (traffic shape,
  // tariff) are accepted — topology/energy/algorithm changes are refused
  // with the first differing field. Requires --scenario and --supervise.
  std::string reload_scenario_path;

  // Parallel replicate sweep (docs/PERFORMANCE.md). seeds > 1 runs that
  // many replicates (input_seed, input_seed+1, ...) through the sweep
  // engine and prints per-seed lines plus an aggregate summary; trace/CSV
  // and checkpoint paths get a ".seed<k>" suffix per replicate.
  // Incompatible with --resume (per-seed resume state is derived from the
  // checkpoint base automatically under --supervise). threads caps the
  // sweep workers; 0 = all hardware threads.
  int seeds = 1;
  int threads = 0;

  // Performance lever (docs/PERFORMANCE.md "Scaling past 500 nodes").
  // Off is the paper-baseline behavior; it does not change what the
  // controller CAN decide, only how fast it gets there, but it may perturb
  // which equally-good decision is made (ModelConfig::link_prune).
  bool link_prune = false;  // --link-prune on

  bool help = false;  // --help was requested; usage() already printed
};

struct ParseResult {
  std::optional<Options> options;  // empty on error or --help
  std::string error;               // non-empty on error
};

// Parses argv-style arguments (excluding argv[0]).
ParseResult parse_args(const std::vector<std::string>& args);

// The usage text printed for --help and on errors.
std::string usage();

}  // namespace gc::cli
