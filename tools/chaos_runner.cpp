// chaos_runner: the kill-chaos referee for crash-safe service mode
// (docs/ROBUSTNESS.md "Operating long runs"). It runs an uninterrupted
// reference simulation, then the same simulation under sim::RunSupervisor
// with SIGKILLs scheduled at pseudo-random slots (children really die;
// every restart auto-resumes from the newest valid checkpoint generation),
// and verifies bit-identical convergence:
//
//   * Metrics — every per-slot series and accumulator by IEEE-754 bits,
//   * the stability auditor's carried state,
//   * the JSONL trace, byte for byte modulo per-record wall-clock,
//   * the structured event journal's slot-event stream ({"seq":... lines),
//     byte for byte modulo the trailing wall_s field. Lifecycle lines
//     (restart, checkpoint_fallback) are by-design the DIFFERENCE between
//     the two journals — the referee instead asserts the chaos journal
//     carries exactly one restart line per survived kill.
//
// Exit code 0 means every check passed AND every scheduled kill actually
// fired. CI runs this against the paper scenario and
// examples/scenarios/diurnal_solar_tou.json.
//
//   $ chaos_runner --kills 10 --slots 150
//   $ chaos_runner --scenario examples/scenarios/diurnal_solar_tou.json
//         --kills 2 --chaos-seed 7
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/controller.hpp"
#include "fault/fault_schedule.hpp"
#include "flags.hpp"
#include "obs/events.hpp"
#include "policy/sleep.hpp"
#include "scenario/spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/supervisor.hpp"
#include "util/check.hpp"

namespace {

using gc::sim::Checkpoint;
using gc::sim::Metrics;

struct Options {
  std::string scenario_path;  // empty -> paper baseline (ScenarioConfig{})
  int slots = 150;
  int kills = 10;
  std::uint64_t chaos_seed = 1;
  double V = 3.0;
  int checkpoint_every = 7;
  // Sleep policy imposed on BOTH the clean and the chaos run (src/policy):
  // empty keeps the scenario's own bs.sleep block. The referee then also
  // proves the v5 policy checkpoint section resumes bit-identically.
  std::string policy;
  bool keep = false;   // leave the work files behind for inspection
  bool quiet = false;  // silence the per-kill supervisor chatter
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenario FILE] [--slots N] [--kills K]\n"
      "          [--chaos-seed S] [--v V] [--checkpoint-every N]\n"
      "          [--policy NAME] [--keep] [--quiet]\n"
      "\n"
      "Kill-chaos referee: SIGKILLs a supervised run K times at seeded\n"
      "random slots and requires the auto-resumed result to be\n"
      "bit-identical to an uninterrupted run (docs/ROBUSTNESS.md).\n"
      "\n"
      "  --slots N              int >= 2 (default 150)\n"
      "  --kills K              int >= 0 (default 10)\n"
      "  --chaos-seed S         int >= 0 (default 1)\n"
      "  --v V                  number >= 0 (default 3)\n"
      "  --checkpoint-every N   int >= 1 (default 7)\n",
      argv0);
  return 2;
}

// splitmix64: tiny, seedable, and plenty for picking kill slots.
std::uint64_t next_rand(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Strips the per-record wall-clock object ("time_s":{...}) — the only
// nondeterministic part of a trace line.
std::string strip_time(const std::string& line) {
  const std::size_t begin = line.find("\"time_s\":{");
  if (begin == std::string::npos) return line;
  const std::size_t end = line.find('}', begin);
  return line.substr(0, begin) + line.substr(end + 1);
}

std::vector<std::string> read_stripped_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(strip_time(line));
  return lines;
}

// Event-journal comparison (obs/events.hpp): slot events are replay state
// and must match byte for byte once the trailing wall_s field is stripped;
// lifecycle lines (no "seq") tell the recovery story and differ by design.
std::string strip_wall(const std::string& line) {
  const std::size_t at = line.find(",\"wall_s\":");
  if (at == std::string::npos) return line;
  return line.substr(0, at) + "}";
}

std::vector<std::string> read_slot_events(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("{\"seq\":", 0) == 0) out.push_back(strip_wall(line));
  return out;
}

int count_lifecycle(const std::string& path, const char* kind) {
  std::ifstream in(path);
  const std::string needle = std::string("{\"kind\":\"") + kind + "\",";
  int n = 0;
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(needle, 0) == 0) ++n;
  return n;
}

// PASS/FAIL ledger: every referee check prints one line and the process
// exit code reports whether all of them held.
int g_failures = 0;
void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

void check_series(const std::vector<double>& a, const std::vector<double>& b,
                  const char* name) {
  bool ok = a.size() == b.size();
  for (std::size_t i = 0; ok && i < a.size(); ++i) ok = bits(a[i]) == bits(b[i]);
  check(ok, name);
}

void check_metrics(const Metrics& a, const Metrics& b) {
  check(a.slots == b.slots, "metrics: slots");
  check_series(a.cost, b.cost, "metrics: cost series");
  check_series(a.grid_j, b.grid_j, "metrics: grid energy series");
  check_series(a.q_bs, b.q_bs, "metrics: BS queue series");
  check_series(a.q_users, b.q_users, "metrics: user queue series");
  check_series(a.battery_bs_j, b.battery_bs_j, "metrics: BS battery series");
  check_series(a.battery_users_j, b.battery_users_j,
               "metrics: user battery series");
  check(a.cost_avg.slots() == b.cost_avg.slots() &&
            bits(a.cost_avg.sum()) == bits(b.cost_avg.sum()),
        "metrics: cost average accumulator");
  check(bits(a.q_total_stability.sup_partial_average()) ==
                bits(b.q_total_stability.sup_partial_average()) &&
            bits(a.h_total_stability.sup_partial_average()) ==
                bits(b.h_total_stability.sup_partial_average()),
        "metrics: stability partial-average sups");
  check(bits(a.total_demand_shortfall) == bits(b.total_demand_shortfall) &&
            bits(a.total_unserved_energy_j) == bits(b.total_unserved_energy_j) &&
            bits(a.total_curtailed_j) == bits(b.total_curtailed_j) &&
            bits(a.total_delivered_packets) == bits(b.total_delivered_packets) &&
            bits(a.total_admitted_packets) == bits(b.total_admitted_packets),
        "metrics: run totals");
}

void check_audit(const Checkpoint& a, const Checkpoint& b) {
  // Every run audits, so both checkpoints carry the auditor's state.
  check(a.has_audit && b.has_audit, "audit: presence");
  check(a.audit.slots == b.audit.slots &&
            bits(a.audit.cost_sum) == bits(b.audit.cost_sum) &&
            bits(a.audit.prev_lyapunov) == bits(b.audit.prev_lyapunov) &&
            a.audit.total_q_violations == b.audit.total_q_violations &&
            a.audit.total_z_violations == b.audit.total_z_violations &&
            a.audit.total_drift_violations == b.audit.total_drift_violations &&
            a.audit.unstable_windows == b.audit.unstable_windows &&
            bits(a.audit.run_worst_q_margin) == bits(b.audit.run_worst_q_margin) &&
            bits(a.audit.run_worst_z_margin) == bits(b.audit.run_worst_z_margin),
        "audit: carried accumulators");
}

void check_policy(const Checkpoint& a, const Checkpoint& b) {
  check(a.has_policy == b.has_policy, "policy: presence");
  if (!a.has_policy || !b.has_policy) return;
  bool state_equal = a.policy_state.mode == b.policy_state.mode &&
                     a.policy_state.dwell == b.policy_state.dwell &&
                     a.policy_state.wake_countdown ==
                         b.policy_state.wake_countdown;
  check(state_equal, "policy: per-BS mode/dwell/countdown state");
  check(a.policy_state.switches == b.policy_state.switches &&
            bits(a.policy_state.switch_energy_j) ==
                bits(b.policy_state.switch_energy_j) &&
            a.policy_state.sleep_slots == b.policy_state.sleep_slots,
        "policy: carried switch counters");
}

void remove_generations(const std::string& base) {
  for (const auto& g : gc::sim::list_generations(base))
    std::remove(g.file.c_str());
}

int run(const Options& opt) {
  // Resolve the scenario: a file when given, the paper baseline otherwise.
  gc::scenario::ScenarioSpec spec;
  if (!opt.scenario_path.empty())
    spec = gc::scenario::load_scenario_file(opt.scenario_path);
  const std::uint64_t hash = gc::scenario::scenario_hash(spec);
  // --policy overrides the scenario's sleep policy after hashing, exactly
  // like the simulator CLI: the policy is a run parameter, not part of the
  // scenario identity a resume is checked against.
  gc::sim::ScenarioConfig cfg = spec.config;
  if (!opt.policy.empty())
    cfg.bs_sleep.policy = gc::policy::parse_sleep_policy(opt.policy);
  const gc::policy::SleepSetup sleep_setup = cfg.sleep_setup();

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string prefix = std::string(tmpdir ? tmpdir : "/tmp") +
                             "/gc_chaos_" + std::to_string(getpid()) + "_";
  const std::string clean_ckpt = prefix + "clean.ckpt";
  const std::string clean_trace = prefix + "clean.jsonl";
  const std::string clean_events = prefix + "clean.events.jsonl";
  const std::string base = prefix + "chaos.ckpt";
  const std::string chaos_trace = prefix + "chaos.jsonl";
  const std::string chaos_events = prefix + "chaos.events.jsonl";
  remove_generations(clean_ckpt);
  remove_generations(base);
  std::remove(chaos_trace.c_str());
  std::remove(chaos_events.c_str());

  std::printf("chaos_runner: scenario %s (hash 0x%016llx), %d slots, "
              "%d kill(s), chaos seed %llu\n",
              spec.name.c_str(), static_cast<unsigned long long>(hash),
              opt.slots, opt.kills,
              static_cast<unsigned long long>(opt.chaos_seed));

  // Uninterrupted reference run.
  {
    const auto model = cfg.build();
    gc::core::LyapunovController ctrl(model, opt.V,
                                      cfg.controller_options());
    gc::sim::SimOptions sopts;
    sopts.checkpoint_path = clean_ckpt;
    // Same cadence as the chaos run: the checkpoint_write slot events must
    // line up for the journal compare.
    sopts.checkpoint_every = opt.checkpoint_every;
    sopts.trace_path = clean_trace;
    sopts.scenario_name = spec.name;
    sopts.scenario_hash = hash;
    sopts.sleep = &sleep_setup;
    gc::obs::EventJournal journal;
    journal.open_sink(clean_events, /*cut_slot=*/-1);
    sopts.events = &journal;
    gc::sim::run_simulation(model, ctrl, opt.slots, sopts);
  }

  // Seeded kill schedule over (0, slots): duplicates are allowed and fire
  // on consecutive attempts (the MAX-ordinal rule).
  std::uint64_t rng = opt.chaos_seed;
  gc::fault::FaultSchedule faults(cfg.build().num_nodes(), 7);
  std::printf("  kill slots:");
  for (int k = 0; k < opt.kills; ++k) {
    gc::fault::FaultEvent e;
    e.kind = gc::fault::FaultEvent::Kind::ProcessKill;
    e.start = 1 + static_cast<int>(next_rand(rng) %
                                   static_cast<std::uint64_t>(opt.slots - 1));
    faults.add(e);
    std::printf(" %d", e.start);
  }
  std::printf("\n");

  gc::sim::SupervisorOptions sup;
  sup.max_restarts = opt.kills + 2;
  sup.backoff_ms = 1;
  sup.quiet = opt.quiet;
  // Restart lifecycle lines come from the parent, with the journal first
  // cut to the slot the next attempt resumes from — the same contract
  // greencell_sim --supervise uses.
  sup.on_crash_restart = [&](int restarts) {
    gc::sim::append_supervisor_event(chaos_events, base,
                                     gc::obs::EventKind::kRestart, restarts);
  };
  // Children inherit the pre-fork stdio buffer and flush it on exit;
  // drain it now so the banner prints exactly once.
  std::fflush(nullptr);
  const gc::sim::SupervisorOutcome outcome =
      gc::sim::RunSupervisor(sup).run([&](int crash_restarts) {
        const auto model = cfg.build();
        gc::core::LyapunovController ctrl(model, opt.V,
                                          cfg.controller_options());
        gc::sim::SimOptions sopts;
        sopts.checkpoint_path = base;
        sopts.checkpoint_every = opt.checkpoint_every;
        sopts.resume_path = base;
        sopts.resume_auto = true;
        sopts.trace_path = chaos_trace;
        sopts.scenario_name = spec.name;
        sopts.scenario_hash = hash;
        sopts.sleep = &sleep_setup;
        sopts.process_kill_skip = crash_restarts;
        sopts.faults = &faults;
        gc::obs::EventJournal journal;
        journal.open_sink(chaos_events, gc::sim::auto_resume_slot(base));
        sopts.events = &journal;
        gc::sim::run_simulation(model, ctrl, opt.slots, sopts);
        return 0;
      });

  check(outcome.exit_code == 0, "supervised run completed");
  check(outcome.crash_restarts == opt.kills,
        "every scheduled kill fired and was survived");
  check(!outcome.gave_up, "supervisor never gave up");
  if (outcome.crash_restarts != opt.kills)
    std::printf("       (crash restarts: %d, scheduled kills: %d)\n",
                outcome.crash_restarts, opt.kills);

  // The referee reads only the files the children left behind — the
  // attempts ran in forked processes, so the disk IS the shared state.
  const auto clean = gc::sim::load_newest_valid(clean_ckpt);
  const auto sel = gc::sim::load_newest_valid(base);
  check(clean.has_value(), "clean run left a loadable checkpoint generation");
  check(sel.has_value(), "chaos run left a loadable checkpoint generation");
  if (clean.has_value() && sel.has_value()) {
    const Checkpoint& want = clean->checkpoint;
    check(sel->checkpoint.next_slot == opt.slots,
          "final checkpoint reached the horizon");
    check_metrics(sel->checkpoint.metrics, want.metrics);
    check_audit(sel->checkpoint, want);
    check_policy(sel->checkpoint, want);
    check(bits(sel->checkpoint.last_grid_j) == bits(want.last_grid_j),
          "controller P(t-1) memory");
  }

  const auto clean_lines = read_stripped_lines(clean_trace);
  const auto chaos_lines = read_stripped_lines(chaos_trace);
  bool traces_equal = clean_lines.size() == chaos_lines.size() &&
                      clean_lines.size() ==
                          static_cast<std::size_t>(opt.slots) + 1;
  std::size_t first_diff = 0;
  for (std::size_t i = 0; traces_equal && i < clean_lines.size(); ++i)
    if (clean_lines[i] != chaos_lines[i]) {
      traces_equal = false;
      first_diff = i;
    }
  check(traces_equal, "trace byte-identical modulo wall-clock");
  if (!traces_equal)
    std::printf("       (lines %zu vs %zu, first divergence at line %zu)\n",
                clean_lines.size(), chaos_lines.size(), first_diff);

  // Event journals: the slot-event stream must replay bit-identically;
  // lifecycle lines are the recovery story — exactly one restart per
  // survived kill.
  const auto clean_ev = read_slot_events(clean_events);
  const auto chaos_ev = read_slot_events(chaos_events);
  bool events_equal = clean_ev.size() == chaos_ev.size();
  std::size_t ev_diff = 0;
  for (std::size_t i = 0; events_equal && i < clean_ev.size(); ++i)
    if (clean_ev[i] != chaos_ev[i]) {
      events_equal = false;
      ev_diff = i;
    }
  check(events_equal,
        "event journal slot-event stream byte-identical modulo wall-clock");
  if (!events_equal)
    std::printf("       (slot events %zu vs %zu, first divergence at %zu)\n",
                clean_ev.size(), chaos_ev.size(), ev_diff);
  check(count_lifecycle(chaos_events, "restart") == outcome.crash_restarts,
        "event journal carries one restart line per survived kill");

  if (opt.keep) {
    std::printf("work files kept under %s*\n", prefix.c_str());
  } else {
    remove_generations(clean_ckpt);
    std::remove(clean_trace.c_str());
    std::remove(clean_events.c_str());
    std::remove(chaos_trace.c_str());
    std::remove(chaos_events.c_str());
    remove_generations(base);
  }

  if (g_failures == 0) {
    std::printf("chaos_runner: OK — %d kill(s) survived bit-identically\n",
                outcome.crash_restarts);
    return 0;
  }
  std::printf("chaos_runner: FAILED — %d check(s) did not hold\n",
              g_failures);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  namespace flags = gc::flags;
  Options opt;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    try {
      if (a == "--scenario") {
        opt.scenario_path = flags::next_value(args, i);
      } else if (a == "--slots") {
        opt.slots = flags::read_int(a, flags::next_value(args, i), 2);
      } else if (a == "--kills") {
        opt.kills = flags::read_int(a, flags::next_value(args, i), 0);
      } else if (a == "--chaos-seed") {
        opt.chaos_seed = flags::read_u64(a, flags::next_value(args, i));
      } else if (a == "--v") {
        opt.V = flags::read_number(a, flags::next_value(args, i), 0);
      } else if (a == "--checkpoint-every") {
        opt.checkpoint_every =
            flags::read_int(a, flags::next_value(args, i), 1);
      } else if (a == "--policy") {
        opt.policy = flags::next_value(args, i);
        flags::read_choice(a, opt.policy, gc::policy::kSleepPolicyNames);
      } else if (a == "--keep") {
        opt.keep = true;
      } else if (a == "--quiet") {
        opt.quiet = true;
      } else if (a == "--help" || a == "-h") {
        return usage(argv[0]);
      } else {
        std::fprintf(stderr, "error: unknown flag %s\n", a.c_str());
        return usage(argv[0]);
      }
    } catch (const flags::UsageError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  try {
    return run(opt);
  } catch (const gc::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
