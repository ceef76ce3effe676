// greencell_sim: command-line driver for the online energy-cost-minimizing
// controller. See --help (tools/cli_options.cpp) for every flag.
//
//   $ greencell_sim --users 30 --V 4 --slots 200 --csv run.csv
//   $ greencell_sim --slots 200 --trace run.jsonl --report
//   $ greencell_sim --multihop 0 --renewables 0 --quiet   # legacy baseline
#include <cstdio>
#include <memory>

#include "cli_options.hpp"
#include "core/controller.hpp"
#include "fault/fault_schedule.hpp"
#include "lp/solve_log.hpp"
#include "obs/alerts.hpp"
#include "obs/events.hpp"
#include "obs/http_exporter.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/timer.hpp"
#include "policy/sleep.hpp"
#include "scenario/spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "sim/supervisor.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"

namespace {

// End-of-run observability: every registered counter and timer (the
// ctrl.*_seconds timers carry the per-subproblem wall time).
void print_report() {
  std::printf("\n-- report: registry --\n%s",
              gc::obs::render_report(gc::obs::registry()).c_str());
}

int run(const gc::cli::Options& opt);
int run_attempt(const gc::cli::Options& opt, int crash_restarts,
                bool supervised);

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const gc::cli::ParseResult parsed = gc::cli::parse_args(args);
  if (!parsed.options) {
    std::fprintf(stderr, "error: %s\n\n%s", parsed.error.c_str(),
                 gc::cli::usage().c_str());
    return 2;
  }
  if (parsed.options->help) {
    std::fputs(gc::cli::usage().c_str(), stdout);
    return 0;
  }
  const gc::cli::Options& opt = *parsed.options;
  try {
    return run(opt);
  } catch (const gc::CheckError& e) {
    // Unopenable trace/CSV paths and --validate violations land here.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

namespace {

// --csv output for one run's per-slot series.
void write_csv(const std::string& path, const gc::sim::Metrics& m) {
  gc::CsvWriter csv(path, {"t", "cost", "grid_j", "q_bs", "q_users",
                           "battery_bs_j", "battery_users_j"});
  for (int t = 0; t < m.slots; ++t)
    csv.row({static_cast<double>(t + 1), m.cost[t], m.grid_j[t], m.q_bs[t],
             m.q_users[t], m.battery_bs_j[t], m.battery_users_j[t]});
}

// What one attempt hands to its run.
struct Attempt {
  const gc::fault::FaultSchedule* faults = nullptr;
  const gc::policy::SleepSetup* sleep = nullptr;
  int crash_restarts = 0;
  bool supervised = false;
};

// The options of the run: the controller's lever overrides, mobility, and
// the SimOptions. `opt.scenario` already carries the link-prune lever. The
// live sinks (events, alerts, exporter) and the lp-log are attached by the
// caller.
gc::sim::SimJob make_job(const gc::cli::Options& opt, const Attempt& at) {
  gc::sim::SimJob job;
  job.scenario = opt.scenario;
  job.V = opt.V;
  job.slots = opt.slots;
  job.controller = opt.scenario.controller_options();
  if (opt.mobility_mps > 0.0) {
    gc::sim::MobilityConfig mob;
    mob.speed_mps_lo = 0.0;
    mob.speed_mps_hi = opt.mobility_mps;
    mob.area_m = opt.scenario.area_m;
    job.mobility = mob;
  }

  gc::sim::SimOptions& sim = job.sim;
  sim.input_seed = opt.input_seed;
  sim.validate = opt.validate;
  sim.strict_bounds = opt.strict_bounds;
  sim.trace_path = opt.trace_path;
  sim.trace_top_k = opt.trace_top_k;
  sim.snapshot_path = opt.snapshot_path;
  sim.snapshot_every = opt.snapshot_every;
  sim.scenario_name = opt.scenario_name;
  sim.scenario_hash = opt.scenario_hash;
  sim.scenario_structural_hash = opt.scenario_structural_hash;
  sim.allow_swapped_scenario =
      at.supervised && !opt.reload_scenario_path.empty();
  sim.faults = at.faults;
  sim.sleep = at.sleep;
  sim.checkpoint_path = opt.checkpoint_path;
  sim.checkpoint_every = opt.checkpoint_every;
  // A supervised attempt always auto-resumes from its checkpoint base (a
  // crash may have landed before the first checkpoint existed, so the base
  // may legitimately name nothing).
  sim.resume_path = at.supervised ? opt.checkpoint_path : opt.resume_path;
  sim.resume_auto = at.supervised;
  sim.process_kill_skip = at.crash_restarts;
  return job;
}

// The slot a run's pre-opened sinks (lp-log, event journal) are cut back
// to: a supervised attempt's checkpointed slot, so a resumed run's files
// are byte-identical to an uninterrupted one's. -1 = open them fresh.
int sink_resume_slot(const gc::sim::SimJob& job) {
  return job.sim.resume_auto
             ? gc::sim::auto_resume_slot(job.sim.resume_path)
             : -1;
}

// --lp-log: stream every simplex solve's SolveStats of `job` as JSONL.
std::unique_ptr<gc::lp::JsonlSolveLog> attach_lp_log(const std::string& path,
                                                     int resume_slot,
                                                     gc::sim::SimJob& job) {
  auto log = std::make_unique<gc::lp::JsonlSolveLog>(path, resume_slot);
  job.controller->lp_stats = log.get();
  job.sim.lp_sink = log.get();
  return log;
}

// --spans / --profile: drain the ring once, export the Chrome trace and/or
// the attribution tree from the same event list.
void export_run_obs(const gc::cli::Options& opt,
                    const gc::core::NetworkModel& model,
                    const gc::sim::Metrics& m, double wall_s) {
  if (opt.spans_path.empty() && opt.profile_path.empty()) return;
  gc::obs::SpanRecorder& rec = gc::obs::SpanRecorder::instance();
  const long long dropped = static_cast<long long>(rec.dropped());
  // The meta before the drain: its range-pruned pair count screens every
  // link-prune row under a span (net.prune_count) the profile then holds.
  gc::obs::ProfileMeta meta;
  if (!opt.profile_path.empty())
    meta = gc::sim::make_profile_meta(opt.scenario_name, model, m.slots,
                                      wall_s, dropped);
  const std::vector<gc::obs::SpanEvent> events = rec.drain();
  if (!opt.spans_path.empty()) {
    gc::obs::write_chrome_trace(opt.spans_path, events);
    if (!opt.quiet) {
      std::printf("spans written to %s", opt.spans_path.c_str());
      if (dropped > 0)
        std::printf(" (ring buffer dropped %lld oldest spans)", dropped);
      std::printf("\n");
    }
  }
  if (!opt.profile_path.empty()) {
    gc::obs::Profile p = gc::obs::build_profile(events);
    p.meta = meta;
    // The run's sleep-policy identity and counters; a policy-free run
    // leaves them unset, keeping the artifact byte-stable.
    if (m.policy_awake_bs >= 0) {
      p.meta.policy =
          gc::policy::sleep_policy_name(opt.scenario.bs_sleep.policy);
      p.meta.policy_switches = static_cast<std::int64_t>(m.policy_switches);
      p.meta.policy_switch_energy_j = m.policy_switch_energy_j;
      p.meta.policy_sleep_slots =
          static_cast<std::int64_t>(m.policy_sleep_slots);
    }
    gc::sim::write_profile_files(opt.profile_path, p);
    if (!opt.quiet)
      std::printf("profile written to %s (+.collapsed)\n",
                  opt.profile_path.c_str());
  }
}

// Crash-safe service mode (docs/ROBUSTNESS.md "Operating long runs"):
// --supervise runs each attempt in a forked child; crashes restart it from
// the newest valid checkpoint, SIGHUP hot-reloads the scenario.
int run(const gc::cli::Options& opt) {
  if (!opt.supervise) return run_attempt(opt, 0, false);
  gc::sim::SupervisorOptions sup_opts;
  sup_opts.max_restarts = opt.max_restarts;
  sup_opts.backoff_ms = opt.restart_backoff_ms;
  sup_opts.quiet = opt.quiet;
  // Event-journal lifecycle hooks: restart / hot_reload lines come from
  // the PARENT (the process that survives the crash), at the slot the next
  // attempt resumes from (sim::append_supervisor_event).
  int reloads_seen = 0;
  if (!opt.events_path.empty()) {
    sup_opts.on_crash_restart = [&opt](int restarts) {
      gc::sim::append_supervisor_event(
          opt.events_path, opt.checkpoint_path, gc::obs::EventKind::kRestart,
          restarts);
    };
    sup_opts.on_reload = [&opt, &reloads_seen]() {
      gc::sim::append_supervisor_event(
          opt.events_path, opt.checkpoint_path, gc::obs::EventKind::kHotReload,
          ++reloads_seen);
    };
  }
  gc::sim::RunSupervisor supervisor(sup_opts);
  const gc::sim::SupervisorOutcome outcome =
      supervisor.run([&](int crash_restarts) {
        try {
          return run_attempt(opt, crash_restarts, true);
        } catch (const gc::CheckError& e) {
          // A deterministic failure: print it here (the child's stderr is
          // the user's stderr) and exit nonzero so the supervisor does
          // not retry it.
          std::fprintf(stderr, "error: %s\n", e.what());
          return 1;
        }
      });
  if (!opt.quiet && (outcome.crash_restarts > 0 || outcome.reloads > 0))
    std::printf("supervisor: %d crash restart(s), %d reload(s)%s\n",
                outcome.crash_restarts, outcome.reloads,
                outcome.gave_up ? "; gave up" : "");
  return outcome.exit_code;
}

// Scenario hot-reload: re-read the swap file, lay the run's sleep-policy
// overrides over it (the swap must not drop them), and accept it only when
// the structural fields (topology, energy model, algorithm) are untouched —
// traffic shape and tariff may change. Refusals name the first differing
// structural field.
gc::scenario::ScenarioSpec load_swapped_scenario(
    const gc::cli::Options& opt) {
  gc::scenario::ScenarioSpec swapped =
      gc::scenario::load_scenario_file(opt.reload_scenario_path);
  opt.sleep_overrides.apply(swapped.config.bs_sleep);
  if (gc::scenario::scenario_structural_hash(swapped) !=
      opt.scenario_structural_hash) {
    const gc::scenario::ScenarioSpec original =
        gc::scenario::load_scenario_file(opt.scenario_path);
    const std::string field =
        gc::scenario::first_structural_difference(original, swapped);
    throw gc::CheckError("--reload-scenario " + opt.reload_scenario_path +
                         ": structural field \"" + field + "\" differs from " +
                         opt.scenario_path +
                         "; only traffic shape and tariff may be swapped at "
                         "a reload (docs/ROBUSTNESS.md)");
  }
  if (swapped.config.bs_sleep.wake_threshold <
      swapped.config.bs_sleep.sleep_threshold)
    throw gc::CheckError("--reload-scenario " + opt.reload_scenario_path +
                         ": wake threshold below sleep threshold once the "
                         "--sleep-* overrides apply");
  return swapped;
}

int run_attempt(const gc::cli::Options& opt_in, int crash_restarts,
                bool supervised) {
  gc::cli::Options opt = opt_in;
  // --print-scenario: dump the resolved spec (whether it came from a
  // --scenario file or from shaping flags) as canonical JSON and exit.
  if (opt.print_scenario) {
    gc::scenario::ScenarioSpec spec;
    spec.name = opt.scenario_name;
    spec.config = opt.scenario;
    std::fputs(gc::scenario::to_json(spec).c_str(), stdout);
    return 0;
  }

  // Resolve the active scenario: a supervised attempt with a reload file
  // swaps it in (structurally checked) on every (re)start, so a SIGHUP
  // restart picks up edits without losing checkpointed progress.
  const bool scenario_swapped =
      supervised && !opt.reload_scenario_path.empty();
  if (scenario_swapped) {
    const gc::scenario::ScenarioSpec swapped = load_swapped_scenario(opt);
    opt.scenario = swapped.config;
    opt.scenario_name = swapped.name;
    opt.scenario_hash = gc::scenario::scenario_hash(swapped);
    if (!opt.quiet && opt.scenario_hash != opt_in.scenario_hash)
      std::printf("scenario swapped in from %s (%s)\n",
                  opt.reload_scenario_path.c_str(),
                  gc::scenario::hash_hex(opt.scenario_hash).c_str());
  }

  // Performance levers ride on top of the scenario (they are run
  // parameters, never part of the spec or its hash).
  opt.scenario.link_prune = opt.link_prune;

  // Both the Chrome trace and the profile feed off the same span ring;
  // it records from here so the profile attributes the model build too.
  if (!opt.spans_path.empty() || !opt.profile_path.empty())
    gc::obs::SpanRecorder::instance().enable();

  gc::core::NetworkModel model = opt.scenario.build();
  // Per-BS sleep parameters (src/policy), expanded from the scenario's
  // bs.tiers / bs.sleep blocks plus any --policy overrides. Plain data; it
  // must outlive the run (SimOptions holds a pointer).
  const gc::policy::SleepSetup sleep_setup = opt.scenario.sleep_setup();
  Attempt at;
  at.sleep = &sleep_setup;
  at.crash_restarts = crash_restarts;
  at.supervised = supervised;

  // Any checkpointing run gets signal-safe graceful shutdown: the first
  // SIGTERM/SIGINT finishes the slot, writes a checkpoint, flushes every
  // sink and exits cleanly; the second one kills the process.
  if (supervised || !opt.checkpoint_path.empty())
    gc::sim::install_shutdown_signals();

  gc::fault::FaultSchedule faults(model.num_nodes(), opt.input_seed);
  if (!opt.faults_path.empty()) {
    faults = gc::fault::FaultSchedule::from_json_file(opt.faults_path,
                                                      model.num_nodes());
    at.faults = &faults;
  }

  gc::sim::SimJob run = make_job(opt, at);
  gc::sim::SimOptions& sim_opts = run.sim;
  bool interrupted = false;
  sim_opts.interrupted = &interrupted;
  const int resume_slot = sink_resume_slot(run);
  std::unique_ptr<gc::lp::JsonlSolveLog> lp_log;
  if (!opt.lp_log_path.empty())
    lp_log = attach_lp_log(opt.lp_log_path, resume_slot, run);
  gc::core::LyapunovController controller(model, opt.V, *run.controller);

  // Live operations trio (docs/OBSERVABILITY.md "Operating live runs").
  // All Metrics-neutral: a run with all three attached is bit-identical to
  // the same run without them. The journal's sink opens under the same
  // resume-slot contract as the lp-log above; a non-supervised run starts
  // it fresh, exactly like the trace.
  gc::obs::EventJournal events;
  if (!opt.events_path.empty()) {
    const gc::obs::EventSinkResume er =
        events.open_sink(opt.events_path, resume_slot);
    if (!opt.quiet && er.existed && er.kept_lines > 0)
      std::printf("event journal resumed: kept %lld line(s), dropped %lld, "
                  "next seq %llu\n",
                  static_cast<long long>(er.kept_lines),
                  static_cast<long long>(er.dropped_lines),
                  static_cast<unsigned long long>(er.next_seq));
    sim_opts.events = &events;
  }

  std::unique_ptr<gc::obs::AlertEngine> alerts;
  if (!opt.alerts_path.empty()) {
    alerts = std::make_unique<gc::obs::AlertEngine>(
        gc::obs::AlertEngine::from_json_file(opt.alerts_path));
    sim_opts.alerts = alerts.get();
  }

  // The exporter runs in THIS process — under --supervise that is the
  // child, which owns the registry the endpoints serve; each restarted
  // attempt re-binds (and, for --metrics-port 0, re-publishes) its port.
  std::unique_ptr<gc::obs::HttpExporter> exporter;
  if (opt.metrics_port >= 0) {
    exporter = std::make_unique<gc::obs::HttpExporter>(opt.metrics_port,
                                                       sim_opts.events);
    if (!opt.metrics_port_file.empty())
      gc::util::write_file_atomic(opt.metrics_port_file,
                                  std::to_string(exporter->port()) + "\n",
                                  "metrics port file");
    if (!opt.quiet)
      std::printf("metrics exporter listening on http://127.0.0.1:%d\n",
                  exporter->port());
    sim_opts.exporter = exporter.get();
  }

  gc::sim::Metrics m;
  const gc::obs::Span run_clock(nullptr);
  if (run.mobility) {
    m = gc::sim::run_simulation_mobile(model, controller, opt.slots,
                                       *run.mobility, sim_opts);
  } else {
    m = gc::sim::run_simulation(model, controller, opt.slots, sim_opts);
  }
  const double run_wall_s = run_clock.elapsed_s();

  if (interrupted) {
    // Graceful shutdown: the run checkpointed and flushed at the slot
    // boundary; report where it stopped and exit cleanly (a supervised
    // parent treats exit 0 + termination flag as "done").
    if (!opt.quiet)
      std::printf("interrupted at slot %d of %d; checkpoint %s holds the "
                  "state — resume with --resume (or restart --supervise)\n",
                  m.slots, opt.slots, opt.checkpoint_path.c_str());
    return 0;
  }

  if (!opt.csv_path.empty()) write_csv(opt.csv_path, m);

  // A --slots 0 dry run leaves every series empty; report zeros.
  const bool empty = m.slots == 0;
  const double final_backlog = empty ? 0.0 : m.q_bs.back() + m.q_users.back();
  const double final_battery_bs = empty ? 0.0 : m.battery_bs_j.back();
  const double final_battery_users = empty ? 0.0 : m.battery_users_j.back();

  if (!opt.quiet) {
    if (!opt.scenario_path.empty())
      std::printf("scenario spec: %s (%s) from %s\n", opt.scenario_name.c_str(),
                  gc::scenario::hash_hex(opt.scenario_hash).c_str(),
                  scenario_swapped ? opt.reload_scenario_path.c_str()
                                   : opt.scenario_path.c_str());
    std::printf("scenario: %d users, %d sessions @ %.0f kbps, %s, %s, V=%g\n",
                opt.scenario.num_users, opt.scenario.num_sessions,
                opt.scenario.session_rate_bps / 1e3,
                opt.scenario.multihop ? "multi-hop" : "one-hop",
                opt.scenario.renewables ? "renewables" : "grid-only",
                opt.V);
    std::printf("slots:                %d\n", m.slots);
    std::printf("avg energy cost:      %.6g\n", m.cost_avg.average());
    // Offered = what the (possibly time-varying) traffic model actually
    // presented this run, so the percentage is meaningful under diurnal /
    // bursty / flash-crowd workloads too.
    std::printf("delivered packets:    %.0f (%.1f%% of offered)\n",
                m.total_delivered_packets,
                100.0 * m.total_delivered_packets /
                    std::max(1.0, m.total_offered_packets));
    std::printf("avg delay (slots):    %.2f\n", m.average_delay_slots());
    std::printf("final backlog:        %.0f packets\n", final_backlog);
    std::printf("energy buffers:       %.1f kJ (BS), %.1f kJ (users)\n",
                final_battery_bs / 1e3, final_battery_users / 1e3);
    std::printf("curtailed / unserved: %.1f kJ / %.1f J\n",
                m.total_curtailed_j / 1e3, m.total_unserved_energy_j);
    if (m.policy_awake_bs >= 0)
      std::printf("sleep policy:         %s — %d BS awake at end, %llu "
                  "switch(es), %.1f J switching, %llu BS-slots asleep\n",
                  gc::policy::sleep_policy_name(
                      opt.scenario.bs_sleep.policy),
                  m.policy_awake_bs,
                  static_cast<unsigned long long>(m.policy_switches),
                  m.policy_switch_energy_j,
                  static_cast<unsigned long long>(m.policy_sleep_slots));
    if (!opt.csv_path.empty())
      std::printf("CSV written to %s\n", opt.csv_path.c_str());
    if (!opt.trace_path.empty())
      std::printf("trace written to %s\n", opt.trace_path.c_str());
    if (!opt.checkpoint_path.empty())
      std::printf("checkpoint written to %s.gen<K>\n",
                  opt.checkpoint_path.c_str());
    if (!opt.snapshot_path.empty())
      std::printf("snapshot written to %s (+.prom)\n",
                  opt.snapshot_path.c_str());
    if (lp_log)
      std::printf("LP solve log written to %s (%lld solves)\n",
                  opt.lp_log_path.c_str(),
                  static_cast<long long>(lp_log->lines_written()));
    if (!opt.events_path.empty())
      std::printf("event journal written to %s (%llu slot events)\n",
                  opt.events_path.c_str(),
                  static_cast<unsigned long long>(events.next_seq()));
    if (alerts)
      std::printf("alerts: %llu fire(s) over the run, %d rule(s) firing at "
                  "the end (%d critical)\n",
                  static_cast<unsigned long long>(alerts->total_fires()),
                  alerts->firing(), alerts->critical_firing());
  } else {
    std::printf("avg_cost=%.6g delivered=%.0f delay=%.2f backlog=%.0f\n",
                m.cost_avg.average(), m.total_delivered_packets,
                m.average_delay_slots(), final_backlog);
  }
  if (opt.report) print_report();
  export_run_obs(opt, model, m, run_wall_s);
  // --alerts-fatal: a completed run during which any rule fired exits 3,
  // distinct from usage errors (2) and deterministic failures (1). The
  // graceful-interrupt path above stays exit 0 so a SIGHUP hot-reload is
  // never mistaken for a deterministic failure.
  if (alerts != nullptr && opt.alerts_fatal && alerts->total_fires() > 0) {
    std::fprintf(stderr,
                 "error: --alerts-fatal: %llu alert fire(s) during the run\n",
                 static_cast<unsigned long long>(alerts->total_fires()));
    return 3;
  }
  return 0;
}

}  // namespace
