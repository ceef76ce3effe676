#include "cli_options.hpp"

#include <cstdlib>
#include <iterator>
#include <sstream>
#include <utility>

#include "energy/tariff.hpp"
#include "policy/sleep.hpp"
#include "scenario/spec.hpp"
#include "util/check.hpp"

namespace gc::cli {

std::string usage() {
  return R"(greencell_sim — online energy-cost-minimizing multi-hop cellular simulator
(reproduction of Liao et al., ICDCS 2014)

usage: greencell_sim [flags]

declarative scenarios (docs/SCENARIOS.md):
  --scenario PATH       load a scenario JSON spec (topology, traffic,
                        renewables, tariff, energy model, algorithm); the
                        file is the single source of truth, so the
                        scenario-shaping flags below are rejected with it
  --print-scenario      print the resolved scenario as canonical JSON and
                        exit (also works without --scenario: dumps the
                        flag-built scenario, a migration path to specs)

scenario flags (shorthand for the spec fields):
  --users N             mobile users (default 20)
  --sessions N          downlink sessions (default 4)
  --rate-kbps R         per-session demand (default 100)
  --area M              square side in meters (default 2000)
  --seed S              scenario seed: topology/bands/destinations (default 42)
  --multihop 0|1        relaying on/off (default 1)
  --renewables 0|1      renewable sources on/off (default 1)
  --bs-radios N         radios per base station (default 1)
  --user-radios N       radios per user (default 1)
  --phy min|adaptive    min-power fixed rate (paper) or max-power Shannon rate
  --tariff B:E:M        time-of-use tariff: multiplier M during slots [B,E)
                        of each 24-slot day (e.g. 8:20:1.5)

algorithm:
  --V X                 drift-plus-penalty weight (default 3)
  --lambda X            admission threshold coefficient (default 10)

sleep policy (src/policy, docs/SCENARIOS.md "bs" section):
  --policy P            base-station sleep policy: always-on (default; the
                        policy-free paper baseline, bit-identical to no
                        policy at all), threshold, hysteresis, or
                        drift-plus-penalty (folds switching energy into the
                        Lemma-1 penalty term). Run-level like --V: combines
                        with --scenario and overrides its bs.sleep.policy
  --sleep-threshold X   mean awake-BS backlog (packets) below which sleep
                        candidates doze (default 1; threshold/hysteresis)
  --wake-threshold X    backlog at which sleeping BS are woken (default 4;
                        hysteresis only; must be >= --sleep-threshold)
  --sleep-dwell N       minimum slots a BS stays in a mode before the
                        policy may switch it again (default 3)
  --min-awake-bs N      never sleep the network below N awake BS (default 1)
  --switch-cost-weight X
                        drift-plus-penalty: weight on the switching-energy
                        term amortized over the dwell (default 1; 0 ignores
                        switching cost)

run:
  --mobility S          users walk (random waypoint) at up to S m/s (default 0)
  --slots T             horizon in slots (default 100; 0 = build-only dry run)
  --input-seed S        random-process seed (default 7)
  --validate            check every P1 constraint each slot (slower)
  --csv PATH            write the per-slot series as CSV
  --trace PATH          write a per-slot JSONL trace (queues, subproblem
                        wall times, decision summary, top-backlog nodes);
                        summarize with tools/trace_summarize
  --trace-top-k N       worst-backlog nodes listed per trace record
                        (default 3; 0 = none)
  --report              print the end-of-run observability report (time
                        breakdown per subproblem, counters, timers)
  --quiet               only the summary line
  --help                this text

observability (docs/OBSERVABILITY.md):
  --strict-bounds       abort on the first violated stability bound (queue
                        above lambda*V + K_s^max + relay allowance, shifted
                        battery outside its range, drift-plus-penalty above
                        the Lemma-1 RHS, or a growing backlog window)
                        instead of counting it in stability.*
  --snapshot PATH       write an atomic JSON progress snapshot (plus a
                        Prometheus-text twin at PATH.prom) during the run;
                        with --seeds > 1 this is the fleet snapshot and
                        per-seed snapshots land at PATH.seed<k>
  --snapshot-every N    snapshot after every N completed slots (default 0 =
                        only the final snapshot); requires --snapshot
  --spans PATH          record nested spans (controller step, S1-S4, LP
                        solves, sweep jobs) and export Chrome trace-event
                        JSON to PATH at the end of the run; with --seeds > 1
                        the combined ring lands at PATH and each replicate's
                        slice at PATH.seed<k>
  --profile PATH        aggregate the span stream into a deterministic
                        attribution tree (slot -> S1-S4 -> lp.solve, with
                        call counts, self/total time and problem-size
                        stats): gc.profile.v1 JSON at PATH, collapsed-stack
                        text for flamegraph tools at PATH.collapsed; with
                        --seeds > 1 per-seed profiles land at PATH.seed<k>
                        and PATH holds the deterministic merge. Compare two
                        profiles with tools/perf_report
  --lp-log PATH         stream one JSON line per simplex solve (context
                        s1/s3/s4, rows/cols/nonzeros, phase-1/2 iterations,
                        pivots, degenerate pivots, warm-start reuse,
                        numeric repairs, status, wall time); with
                        --seeds > 1 each replicate writes PATH.seed<k>

live operations (docs/OBSERVABILITY.md "Operating live runs"):
  --metrics-port N      serve /metrics (Prometheus text), /snapshot.json,
                        /healthz and /events on 127.0.0.1:N from a
                        dedicated thread; N = 0 binds an ephemeral port
                        (requires --metrics-port-file). Reads never block
                        the slot loop. Not combinable with --seeds > 1
  --metrics-port-file PATH
                        write the bound port as one decimal line once the
                        listener is up (service discovery for ephemeral
                        ports); requires --metrics-port
  --events PATH         append a structured event journal (JSONL: restarts,
                        LP fallbacks, checkpoint writes, policy switches,
                        bound violations, alerts) to PATH; resumed runs
                        truncate it to the checkpoint slot first, exactly
                        like --trace. Tail it live with tools/ops_tail; not
                        combinable with --seeds > 1
  --alerts PATH         evaluate the JSON alert rules in PATH at every slot
                        boundary against the live registry; fires show up
                        as alert_fire/alert_clear events and flip /healthz
                        to 503 while a critical rule is firing. Not
                        combinable with --seeds > 1
  --alerts-fatal        exit with code 3 after an otherwise-clean run
                        during which any alert fired; requires --alerts

robustness (docs/ROBUSTNESS.md):
  --faults PATH         inject faults from a JSON spec (node outages,
                        renewable blackouts, grid outages, price spikes,
                        battery fade, link deep fades)
  --checkpoint PATH     write resumable checkpoints to PATH (a final one is
                        always written at the end of the run); with
                        --seeds > 1 each replicate checkpoints to
                        PATH.seed<k>
  --checkpoint-every N  also checkpoint after every N completed slots
                        (N >= 1; requires --checkpoint)
  --checkpoint-rotate N keep the newest N durable checkpoint generations
                        PATH.gen<K> plus a manifest instead of overwriting
                        one file; resume picks the newest generation that
                        loads cleanly (N >= 1; requires --checkpoint)
  --resume PATH         restore a checkpoint and continue; the combined
                        series is bit-identical to an uninterrupted run

crash-safe service mode (docs/ROBUSTNESS.md "Operating long runs"):
  --supervise           fork the run into a supervised child: if it dies
                        abnormally (SIGKILL, SIGSEGV, OOM) it is restarted
                        from the newest valid checkpoint with exponential
                        backoff; SIGTERM/SIGINT stop it gracefully (final
                        checkpoint + flushed sinks); SIGHUP hot-reloads the
                        --reload-scenario file. Requires --checkpoint; not
                        combinable with --resume (supervision auto-resumes
                        from the checkpoint path)
  --max-restarts N      crash restarts before the supervisor gives up
                        (default 5)
  --restart-backoff-ms N  first restart backoff in ms, doubling per
                        consecutive crash (default 500)
  --reload-scenario PATH  re-read this scenario spec on every supervised
                        (re)start; only structurally-identical swaps
                        (traffic shape, tariff) are accepted — a changed
                        topology/energy/algorithm field is refused naming
                        the first differing field. Requires --scenario and
                        --supervise

performance levers (docs/PERFORMANCE.md "Scaling past 500 nodes"):
  --link-prune on|off   drop provably-dead links (out of radio range even
                        at max power into zero interference) before the
                        subproblems build their models (default off). Exact
                        — no capacity is lost — but freeing the radios the
                        unpruned scheduler wastes on doomed links perturbs
                        which equally-good schedule is picked, so the paper
                        baseline keeps it off
  --lp-sparse auto|force|off
                        simplex tableau storage (default auto: sparse when
                        the problem is big AND sparse enough, dense
                        otherwise). Bit-identical results either way —
                        purely a speed choice
  --lp-warm-slots on|off
                        warm-start each slot's S1 LP from the previous
                        slot's final bases (default off). Statuses and
                        objectives are unaffected; a degenerate S1
                        relaxation may round a different equally-optimal
                        link. The carry is checkpointed, so --resume
                        replays bit-identically
  --intra-slot-threads N
                        solve S1's independent interference clusters on N
                        worker threads within each slot (default 1 = the
                        serial paper path; 0 = all hardware threads).
                        Deterministic for any N, but the clustered S1 is
                        not bit-identical to the serial one (per-cluster
                        vs global rounding)

parallel sweep (docs/PERFORMANCE.md):
  --seeds N             run N replicates (input seeds S, S+1, ...) through
                        the parallel sweep engine and print per-seed lines
                        plus a mean/min/max summary; per-seed results are
                        bit-identical at any thread count. --trace/--csv
                        and --checkpoint paths get a ".seed<k>" suffix per
                        replicate; not combinable with --resume
  --threads N           sweep worker threads (default 0 = all hardware
                        threads)
)";
}

namespace {

bool parse_double(const std::string& v, double* out) {
  char* end = nullptr;
  *out = std::strtod(v.c_str(), &end);
  return end && *end == '\0' && !v.empty();
}

bool parse_int(const std::string& v, int* out) {
  double d;
  if (!parse_double(v, &d)) return false;
  *out = static_cast<int>(d);
  return static_cast<double>(*out) == d;
}

bool parse_bool01(const std::string& v, bool* out) {
  if (v == "0") {
    *out = false;
    return true;
  }
  if (v == "1") {
    *out = true;
    return true;
  }
  return false;
}

}  // namespace

ParseResult parse_args(const std::vector<std::string>& args) {
  Options opt;
  auto err = [](const std::string& msg) {
    return ParseResult{std::nullopt, msg};
  };
  // Every parse failure names the offending flag AND the accepted domain:
  //   --users: expected int >= 1, got "abc"
  auto bad = [](const std::string& flag, const std::string& domain,
                const std::string& v) {
    return flag + ": expected " + domain + ", got \"" + v + "\"";
  };
  // Scenario-shaping flags seen on the command line. They conflict with
  // --scenario (the spec file is the single source of truth); the check
  // runs after the loop so rejection is order-independent.
  std::vector<std::string> shaping_seen;
  // Sleep-policy overrides. Run-level like --V (they combine with
  // --scenario), but --scenario replaces opt.scenario wholesale, so they
  // are merged into scenario.bs_sleep after the loop, order-independently.
  std::optional<policy::SleepPolicy> ov_policy;
  std::optional<double> ov_sleep_thr, ov_wake_thr, ov_switch_w;
  std::optional<int> ov_dwell, ov_min_awake;

  static const char* kValueFlags[] = {
      "--scenario", "--users",    "--sessions",         "--rate-kbps",
      "--area",     "--seed",     "--multihop",         "--renewables",
      "--bs-radios", "--user-radios", "--phy",          "--tariff",
      "--mobility", "--V",        "--lambda",           "--slots",
      "--input-seed", "--csv",    "--trace",            "--faults",
      "--checkpoint", "--checkpoint-every", "--resume", "--seeds",
      "--threads",  "--trace-top-k", "--snapshot",      "--snapshot-every",
      "--spans",    "--profile",  "--lp-log",           "--checkpoint-rotate",
      "--max-restarts", "--restart-backoff-ms", "--reload-scenario",
      "--link-prune", "--lp-sparse", "--lp-warm-slots",
      "--intra-slot-threads",
      "--policy", "--sleep-threshold", "--wake-threshold", "--sleep-dwell",
      "--min-awake-bs", "--switch-cost-weight",
      "--metrics-port", "--metrics-port-file", "--events", "--alerts"};

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help") {
      Options help;
      help.help = true;
      return ParseResult{help, ""};
    }
    if (flag == "--validate") {
      opt.validate = true;
      continue;
    }
    if (flag == "--quiet") {
      opt.quiet = true;
      continue;
    }
    if (flag == "--report") {
      opt.report = true;
      continue;
    }
    if (flag == "--print-scenario") {
      opt.print_scenario = true;
      continue;
    }
    if (flag == "--strict-bounds") {
      opt.strict_bounds = true;
      continue;
    }
    if (flag == "--supervise") {
      opt.supervise = true;
      continue;
    }
    if (flag == "--alerts-fatal") {
      opt.alerts_fatal = true;
      continue;
    }
    bool known = false;
    for (const char* f : kValueFlags)
      if (flag == f) known = true;
    if (!known)
      return err("unknown flag " + flag + " (see --help for accepted flags)");
    if (i + 1 >= args.size()) return err(flag + ": missing value");
    const std::string& v = args[++i];
    int iv = 0;
    double dv = 0.0;
    bool bv = false;
    if (flag == "--scenario") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      try {
        scenario::ScenarioSpec spec = scenario::load_scenario_file(v);
        opt.scenario_path = v;
        opt.scenario = spec.config;
        opt.scenario_name = spec.name;
        opt.scenario_hash = scenario::scenario_hash(spec);
        opt.scenario_structural_hash =
            scenario::scenario_structural_hash(spec);
      } catch (const CheckError& e) {
        return err(e.what());
      }
    } else if (flag == "--users") {
      shaping_seen.push_back(flag);
      if (!parse_int(v, &iv) || iv < 1)
        return err(bad(flag, "int >= 1", v));
      opt.scenario.num_users = iv;
    } else if (flag == "--sessions") {
      shaping_seen.push_back(flag);
      if (!parse_int(v, &iv) || iv < 1)
        return err(bad(flag, "int >= 1", v));
      opt.scenario.num_sessions = iv;
    } else if (flag == "--rate-kbps") {
      shaping_seen.push_back(flag);
      if (!parse_double(v, &dv) || dv <= 0)
        return err(bad(flag, "number > 0", v));
      opt.scenario.session_rate_bps = dv * 1e3;
    } else if (flag == "--area") {
      shaping_seen.push_back(flag);
      if (!parse_double(v, &dv) || dv <= 0)
        return err(bad(flag, "number > 0", v));
      opt.scenario.area_m = dv;
    } else if (flag == "--seed") {
      shaping_seen.push_back(flag);
      if (!parse_double(v, &dv) || dv < 0)
        return err(bad(flag, "int >= 0", v));
      opt.scenario.seed = static_cast<std::uint64_t>(dv);
    } else if (flag == "--multihop") {
      shaping_seen.push_back(flag);
      if (!parse_bool01(v, &bv)) return err(bad(flag, "0 or 1", v));
      opt.scenario.multihop = bv;
    } else if (flag == "--renewables") {
      shaping_seen.push_back(flag);
      if (!parse_bool01(v, &bv)) return err(bad(flag, "0 or 1", v));
      opt.scenario.renewables = bv;
    } else if (flag == "--bs-radios") {
      shaping_seen.push_back(flag);
      if (!parse_int(v, &iv) || iv < 1)
        return err(bad(flag, "int >= 1", v));
      opt.scenario.bs_radios = iv;
    } else if (flag == "--user-radios") {
      shaping_seen.push_back(flag);
      if (!parse_int(v, &iv) || iv < 1)
        return err(bad(flag, "int >= 1", v));
      opt.scenario.user_radios = iv;
    } else if (flag == "--phy") {
      shaping_seen.push_back(flag);
      if (v != "min" && v != "adaptive")
        return err(bad(flag, "\"min\" or \"adaptive\"", v));
      opt.scenario.phy_policy =
          v == "min" ? core::ModelConfig::PhyPolicy::MinPowerFixedRate
                     : core::ModelConfig::PhyPolicy::MaxPowerAdaptiveRate;
    } else if (flag == "--tariff") {
      shaping_seen.push_back(flag);
      int begin = 0, end = 0;
      double mult = 0.0;
      std::istringstream ss(v);
      char c1 = 0, c2 = 0;
      if (!(ss >> begin >> c1 >> end >> c2 >> mult) || c1 != ':' ||
          c2 != ':' || !ss.eof() || begin < 0 || end > 24 || begin > end ||
          mult <= 0.0)
        return err(bad(flag, "B:E:M with 0 <= B <= E <= 24 and M > 0", v));
      opt.scenario.tariff_multipliers =
          energy::time_of_use_tariff(24, begin, end, mult, 1.0);
    } else if (flag == "--mobility") {
      if (!parse_double(v, &dv) || dv < 0)
        return err(bad(flag, "number >= 0", v));
      opt.mobility_mps = dv;
    } else if (flag == "--V") {
      if (!parse_double(v, &dv) || dv < 0)
        return err(bad(flag, "number >= 0", v));
      opt.V = dv;
    } else if (flag == "--lambda") {
      shaping_seen.push_back(flag);
      if (!parse_double(v, &dv) || dv < 0)
        return err(bad(flag, "number >= 0", v));
      opt.scenario.lambda = dv;
    } else if (flag == "--slots") {
      if (!parse_int(v, &iv) || iv < 0)
        return err(bad(flag, "int >= 0", v));
      opt.slots = iv;
    } else if (flag == "--input-seed") {
      if (!parse_double(v, &dv) || dv < 0)
        return err(bad(flag, "int >= 0", v));
      opt.input_seed = static_cast<std::uint64_t>(dv);
    } else if (flag == "--csv") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.csv_path = v;
    } else if (flag == "--trace") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.trace_path = v;
    } else if (flag == "--faults") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.faults_path = v;
    } else if (flag == "--checkpoint") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.checkpoint_path = v;
    } else if (flag == "--checkpoint-every") {
      if (!parse_int(v, &iv) || iv < 1)
        return err(bad(flag, "int >= 1", v));
      opt.checkpoint_every = iv;
    } else if (flag == "--checkpoint-rotate") {
      if (!parse_int(v, &iv) || iv < 1)
        return err(bad(flag, "int >= 1", v));
      opt.checkpoint_rotate = iv;
    } else if (flag == "--max-restarts") {
      if (!parse_int(v, &iv) || iv < 0)
        return err(bad(flag, "int >= 0", v));
      opt.max_restarts = iv;
    } else if (flag == "--restart-backoff-ms") {
      if (!parse_int(v, &iv) || iv < 0)
        return err(bad(flag, "int >= 0", v));
      opt.restart_backoff_ms = iv;
    } else if (flag == "--reload-scenario") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.reload_scenario_path = v;
    } else if (flag == "--resume") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.resume_path = v;
    } else if (flag == "--trace-top-k") {
      if (!parse_int(v, &iv) || iv < 0)
        return err(bad(flag, "int >= 0", v));
      opt.trace_top_k = iv;
    } else if (flag == "--snapshot") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.snapshot_path = v;
    } else if (flag == "--snapshot-every") {
      if (!parse_int(v, &iv) || iv < 1)
        return err(bad(flag, "int >= 1", v));
      opt.snapshot_every = iv;
    } else if (flag == "--spans") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.spans_path = v;
    } else if (flag == "--profile") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.profile_path = v;
    } else if (flag == "--lp-log") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.lp_log_path = v;
    } else if (flag == "--link-prune") {
      if (v != "on" && v != "off")
        return err(bad(flag, "\"on\" or \"off\"", v));
      opt.link_prune = v == "on";
    } else if (flag == "--lp-sparse") {
      if (v == "auto")
        opt.lp_sparse = lp::SparseMode::Auto;
      else if (v == "force")
        opt.lp_sparse = lp::SparseMode::Force;
      else if (v == "off")
        opt.lp_sparse = lp::SparseMode::Never;
      else
        return err(bad(flag, "\"auto\", \"force\" or \"off\"", v));
    } else if (flag == "--lp-warm-slots") {
      if (v != "on" && v != "off")
        return err(bad(flag, "\"on\" or \"off\"", v));
      opt.lp_warm_slots = v == "on";
    } else if (flag == "--intra-slot-threads") {
      if (!parse_int(v, &iv) || iv < 0)
        return err(bad(flag, "int >= 0", v));
      opt.intra_slot_threads = iv;
    } else if (flag == "--policy") {
      try {
        ov_policy = policy::parse_sleep_policy(v);
      } catch (const CheckError&) {
        return err(bad(flag,
                       "\"always-on\", \"threshold\", \"hysteresis\" or "
                       "\"drift-plus-penalty\"",
                       v));
      }
    } else if (flag == "--sleep-threshold") {
      if (!parse_double(v, &dv) || dv < 0)
        return err(bad(flag, "number >= 0", v));
      ov_sleep_thr = dv;
    } else if (flag == "--wake-threshold") {
      if (!parse_double(v, &dv) || dv < 0)
        return err(bad(flag, "number >= 0", v));
      ov_wake_thr = dv;
    } else if (flag == "--sleep-dwell") {
      if (!parse_int(v, &iv) || iv < 0)
        return err(bad(flag, "int >= 0", v));
      ov_dwell = iv;
    } else if (flag == "--min-awake-bs") {
      if (!parse_int(v, &iv) || iv < 1)
        return err(bad(flag, "int >= 1", v));
      ov_min_awake = iv;
    } else if (flag == "--switch-cost-weight") {
      if (!parse_double(v, &dv) || dv < 0)
        return err(bad(flag, "number >= 0", v));
      ov_switch_w = dv;
    } else if (flag == "--metrics-port") {
      if (!parse_int(v, &iv) || iv < 0 || iv > 65535)
        return err(bad(flag, "int in [0, 65535] (0 = ephemeral)", v));
      opt.metrics_port = iv;
    } else if (flag == "--metrics-port-file") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.metrics_port_file = v;
    } else if (flag == "--events") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.events_path = v;
    } else if (flag == "--alerts") {
      if (v.empty()) return err(bad(flag, "a non-empty file path", v));
      opt.alerts_path = v;
    } else if (flag == "--seeds") {
      if (!parse_int(v, &iv) || iv < 1)
        return err(bad(flag, "int >= 1", v));
      opt.seeds = iv;
    } else if (flag == "--threads") {
      if (!parse_int(v, &iv) || iv < 0)
        return err(bad(flag, "int >= 0", v));
      opt.threads = iv;
    }
  }
  if (ov_policy) opt.scenario.bs_sleep.policy = *ov_policy;
  if (ov_sleep_thr) opt.scenario.bs_sleep.sleep_threshold = *ov_sleep_thr;
  if (ov_wake_thr) opt.scenario.bs_sleep.wake_threshold = *ov_wake_thr;
  if (ov_dwell) opt.scenario.bs_sleep.min_dwell_slots = *ov_dwell;
  if (ov_min_awake) opt.scenario.bs_sleep.min_awake_bs = *ov_min_awake;
  if (ov_switch_w) opt.scenario.bs_sleep.switch_cost_weight = *ov_switch_w;
  if (opt.scenario.bs_sleep.wake_threshold <
      opt.scenario.bs_sleep.sleep_threshold)
    return err("--wake-threshold must be >= --sleep-threshold (the "
               "hysteresis band would be inverted)");
  if (!opt.scenario_path.empty() && !shaping_seen.empty()) {
    std::string list;
    for (const std::string& f : shaping_seen) {
      if (!list.empty()) list += ", ";
      list += f;
    }
    return err("--scenario conflicts with " + list +
               ": the scenario file defines these; edit the JSON instead "
               "(docs/SCENARIOS.md)");
  }
  if (opt.seeds > 1 && !opt.resume_path.empty())
    return err("--seeds > 1 cannot be combined with --resume (per-seed "
               "resume state is derived from the --checkpoint base under "
               "--supervise)");
  if (opt.checkpoint_every > 0 && opt.checkpoint_path.empty())
    return err("--checkpoint-every requires --checkpoint (it sets the "
               "cadence of the checkpoint file)");
  if (opt.checkpoint_rotate > 0 && opt.checkpoint_path.empty())
    return err("--checkpoint-rotate requires --checkpoint (it rotates the "
               "checkpoint file's generations)");
  if (opt.supervise && opt.checkpoint_path.empty())
    return err("--supervise requires --checkpoint (crash restarts resume "
               "from the newest valid checkpoint)");
  if (opt.supervise && !opt.resume_path.empty())
    return err("--supervise cannot be combined with --resume (supervision "
               "always auto-resumes from the --checkpoint path)");
  if (!opt.reload_scenario_path.empty() && opt.scenario_path.empty())
    return err("--reload-scenario requires --scenario (hot-reload swaps one "
               "spec file for another; flag-built scenarios have no file to "
               "swap)");
  if (!opt.reload_scenario_path.empty() && !opt.supervise)
    return err("--reload-scenario requires --supervise (the reload happens "
               "at a supervised restart, triggered by SIGHUP)");
  if (!opt.reload_scenario_path.empty() && opt.seeds > 1)
    return err("--reload-scenario cannot be combined with --seeds > 1 (a "
               "replicate sweep's scenario is fixed for the whole fleet)");
  if (opt.snapshot_every > 0 && opt.snapshot_path.empty())
    return err("--snapshot-every requires --snapshot (it sets the cadence "
               "of the snapshot file)");
  if (opt.metrics_port == 0 && opt.metrics_port_file.empty())
    return err("--metrics-port 0 requires --metrics-port-file (an ephemeral "
               "port is useless if nothing records where it landed)");
  if (!opt.metrics_port_file.empty() && opt.metrics_port < 0)
    return err("--metrics-port-file requires --metrics-port (there is no "
               "port to record without an exporter)");
  if (opt.alerts_fatal && opt.alerts_path.empty())
    return err("--alerts-fatal requires --alerts (there are no rules to "
               "fire without a rule file)");
  if (opt.seeds > 1) {
    if (opt.metrics_port >= 0)
      return err("--metrics-port cannot be combined with --seeds > 1 (the "
               "exporter serves one run's registry, not a fleet's)");
    if (!opt.events_path.empty())
      return err("--events cannot be combined with --seeds > 1 (concurrent "
               "replicates would interleave one journal)");
    if (!opt.alerts_path.empty())
      return err("--alerts cannot be combined with --seeds > 1 (rules read "
               "the thread-current registry of a single run)");
  }
  // Output paths must be pairwise distinct, checked up front: two flags
  // aimed at one file would silently clobber each other (and under
  // --seeds > 1 the shared ring's per-seed slices would interleave).
  {
    const std::pair<const char*, const std::string*> outputs[] = {
        {"--csv", &opt.csv_path},
        {"--trace", &opt.trace_path},
        {"--snapshot", &opt.snapshot_path},
        {"--spans", &opt.spans_path},
        {"--profile", &opt.profile_path},
        {"--lp-log", &opt.lp_log_path},
        {"--checkpoint", &opt.checkpoint_path},
        {"--events", &opt.events_path},
        {"--metrics-port-file", &opt.metrics_port_file},
    };
    for (std::size_t a = 0; a < std::size(outputs); ++a) {
      if (outputs[a].second->empty()) continue;
      for (std::size_t b = a + 1; b < std::size(outputs); ++b) {
        if (*outputs[a].second == *outputs[b].second)
          return err(std::string(outputs[a].first) + " and " +
                     outputs[b].first + " both write to \"" +
                     *outputs[a].second + "\"; give each output its own path");
      }
    }
  }
  return ParseResult{opt, ""};
}

}  // namespace gc::cli
