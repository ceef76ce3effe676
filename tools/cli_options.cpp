#include "cli_options.hpp"

#include <filesystem>
#include <iterator>
#include <sstream>
#include <utility>

#include "energy/tariff.hpp"
#include "flags.hpp"
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
  --users N             mobile users, N >= 1 (default 20)
  --sessions N          downlink sessions, N >= 1 (default 4)
  --rate-kbps R         per-session demand, R > 0 (default 100)
  --area M              square side in meters, M > 0 (default 2000)
  --seed S              scenario seed, an integer in [0, 2^64):
                        topology/bands/destinations (default 42)
  --multihop 0|1        relaying on/off (default 1)
  --renewables 0|1      renewable sources on/off (default 1)
  --bs-radios N         radios per base station, N >= 1 (default 1)
  --user-radios N       radios per user, N >= 1 (default 1)
  --phy min|adaptive    min-power fixed rate (paper) or max-power Shannon rate
  --tariff B:E:M        time-of-use tariff: multiplier M during slots [B,E)
                        of each 24-slot day (e.g. 8:20:1.5)

algorithm:
  --V X                 drift-plus-penalty weight, X >= 0 (default 3)
  --lambda X            admission threshold coefficient, X >= 0 (default 10)

sleep policy (src/policy, docs/SCENARIOS.md "bs" section):
  --policy P            base-station sleep policy: always-on (default; the
                        policy-free paper baseline, bit-identical to no
                        policy at all), threshold, hysteresis, or
                        drift-plus-penalty (folds switching energy into the
                        Lemma-1 penalty term). Run-level like --V: combines
                        with --scenario and overrides its bs.sleep.policy
  --sleep-threshold X   mean awake-BS backlog (packets) below which sleep
                        candidates doze, X >= 0 (default 1;
                        threshold/hysteresis)
  --wake-threshold X    backlog at which sleeping BS are woken (default 4;
                        hysteresis only; must be >= --sleep-threshold)
  --sleep-dwell N       minimum slots a BS stays in a mode before the
                        policy may switch it again, N >= 0 (default 3)
  --min-awake-bs N      never sleep the network below N >= 1 awake BS
                        (default 1)
  --switch-cost-weight X
                        drift-plus-penalty: weight on the switching-energy
                        term amortized over the dwell, X >= 0 (default 1;
                        0 ignores switching cost)

run:
  --mobility S          users walk (random waypoint) at up to S >= 0 m/s
                        (default 0)
  --slots T             horizon in slots, T >= 0 (default 100; 0 = build-only
                        dry run)
  --input-seed S        random-process seed, an integer in [0, 2^64)
                        (default 7)
  --validate            check every P1 constraint each slot (slower)
  --csv PATH            write the per-slot series as CSV
  --trace PATH          write a per-slot JSONL trace (queues, energy,
                        decision summary, top-backlog nodes);
                        summarize with tools/trace_summarize
  --trace-top-k N       worst-backlog nodes listed per trace record, N >= 0
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
                        Prometheus-text twin at PATH.prom) during the run
  --snapshot-every N    snapshot after every N >= 1 completed slots (default:
                        only the final snapshot); requires --snapshot
  --spans PATH          record nested spans (controller step, S1-S4, LP
                        solves) and export Chrome trace-event JSON to PATH
                        at the end of the run
  --profile PATH        aggregate the span stream into a deterministic
                        attribution tree (slot -> S1-S4 -> lp.solve, with
                        call counts, self/total time and problem-size
                        stats): gc.profile.v1 JSON at PATH, collapsed-stack
                        text for flamegraph tools at PATH.collapsed.
                        Compare two profiles with tools/perf_report
  --lp-log PATH         stream one JSON line per simplex solve (context
                        s1/s3/s4, rows/cols/nonzeros, phase-1/2 iterations,
                        pivots, degenerate pivots, numeric repairs,
                        status, wall time)

live operations (docs/OBSERVABILITY.md "Operating live runs"):
  --metrics-port N      serve /metrics (Prometheus text), /snapshot.json,
                        /healthz and /events on 127.0.0.1:N, N in
                        [0, 65535], from a dedicated thread; N = 0 binds an
                        ephemeral port (requires --metrics-port-file).
                        Reads never block the slot loop
  --metrics-port-file PATH
                        write the bound port as one decimal line once the
                        listener is up (service discovery for ephemeral
                        ports); requires --metrics-port
  --events PATH         append a structured event journal (JSONL: restarts,
                        LP fallbacks, checkpoint writes, policy switches,
                        bound violations, alerts) to PATH; resumed runs
                        truncate it to the checkpoint slot first, exactly
                        like --trace. Tail it live with tools/ops_tail
  --alerts PATH         evaluate the JSON alert rules in PATH at every slot
                        boundary against the live registry; fires show up
                        as alert_fire/alert_clear events and flip /healthz
                        to 503 while a critical rule is firing
  --alerts-fatal        exit with code 3 after an otherwise-clean run
                        during which any alert fired; requires --alerts

robustness (docs/ROBUSTNESS.md):
  --faults PATH         inject faults from a JSON spec (node outages,
                        renewable blackouts, grid outages, price spikes,
                        battery fade, link deep fades)
  --checkpoint PATH     write resumable checkpoint generations PATH.gen<K>
                        (a final one is always written at the end of the
                        run), keeping the newest two
  --checkpoint-every N  also checkpoint after every N completed slots
                        (N >= 1; requires --checkpoint)
  --resume PATH         restore the newest generation PATH.gen<K> that
                        loads cleanly and continue; the combined series is
                        bit-identical to an uninterrupted run

crash-safe service mode (docs/ROBUSTNESS.md "Operating long runs"):
  --supervise           fork the run into a supervised child: if it dies
                        abnormally (SIGKILL, SIGSEGV, OOM) it is restarted
                        from the newest valid checkpoint with exponential
                        backoff; SIGTERM/SIGINT stop it gracefully (final
                        checkpoint + flushed sinks); SIGHUP hot-reloads the
                        --reload-scenario file. Requires --checkpoint; not
                        combinable with --resume (supervision auto-resumes
                        from the checkpoint path)
  --max-restarts N      crash restarts before the supervisor gives up,
                        N >= 0 (default 5)
  --restart-backoff-ms N  first restart backoff in ms, N >= 0, doubling per
                        consecutive crash (default 500)
  --reload-scenario PATH  re-read this scenario spec on every supervised
                        (re)start; only structurally-identical swaps
                        (traffic shape, tariff) are accepted — a changed
                        topology/energy/algorithm field is refused naming
                        the first differing field. Requires --scenario and
                        --supervise

performance lever (docs/PERFORMANCE.md "Scaling past 500 nodes"):
  --link-prune on|off   drop provably-dead links (out of radio range even
                        at max power into zero interference) before the
                        subproblems build their models (default off). Exact
                        — no capacity is lost — but freeing the radios the
                        unpruned scheduler wastes on doomed links perturbs
                        which equally-good schedule is picked, so the paper
                        baseline keeps it off

A replicate study is one process per --input-seed (docs/PERFORMANCE.md
"Replicate studies").
)";
}

void Options::SleepOverrides::apply(policy::SleepPolicyConfig& sleep) const {
  if (policy) sleep.policy = *policy;
  if (sleep_threshold) sleep.sleep_threshold = *sleep_threshold;
  if (wake_threshold) sleep.wake_threshold = *wake_threshold;
  if (min_dwell_slots) sleep.min_dwell_slots = *min_dwell_slots;
  if (min_awake_bs) sleep.min_awake_bs = *min_awake_bs;
  if (switch_cost_weight) sleep.switch_cost_weight = *switch_cost_weight;
}

ParseResult parse_args(const std::vector<std::string>& args) {
  Options opt;
  auto err = [](const std::string& msg) {
    return ParseResult{std::nullopt, msg};
  };
  // Scenario-shaping flags seen on the command line. They conflict with
  // --scenario (the spec file is the single source of truth); the check
  // runs after the loop so rejection is order-independent.
  std::vector<std::string> shaping_seen;
  // Sleep-policy overrides. Run-level like --V (they combine with
  // --scenario), but --scenario replaces opt.scenario wholesale, so they
  // are merged into scenario.bs_sleep after the loop, order-independently.
  Options::SleepOverrides& ov = opt.sleep_overrides;

  // Every malformed value throws flags::UsageError naming the offending
  // flag AND the accepted domain:
  //   --users: expected int >= 1, got "abc"
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& flag = args[i];
      // The flag's value; a UsageError when the flag is last.
      const auto value = [&]() -> const std::string& {
        return flags::next_value(args, i);
      };
      if (flag == "--help") {
        Options help;
        help.help = true;
        return ParseResult{help, ""};
      } else if (flag == "--validate") {
        opt.validate = true;
      } else if (flag == "--quiet") {
        opt.quiet = true;
      } else if (flag == "--report") {
        opt.report = true;
      } else if (flag == "--print-scenario") {
        opt.print_scenario = true;
      } else if (flag == "--strict-bounds") {
        opt.strict_bounds = true;
      } else if (flag == "--supervise") {
        opt.supervise = true;
      } else if (flag == "--alerts-fatal") {
        opt.alerts_fatal = true;
      } else if (flag == "--scenario") {
        const std::string v = flags::read_path(flag, value());
        try {
          scenario::ScenarioSpec spec = scenario::load_scenario_file(v);
          opt.scenario_path = v;
          opt.scenario = spec.config;
          opt.scenario_name = spec.name;
        } catch (const CheckError& e) {
          return err(e.what());
        }
      } else if (flag == "--users") {
        shaping_seen.push_back(flag);
        opt.scenario.num_users = flags::read_int(flag, value(), 1);
      } else if (flag == "--sessions") {
        shaping_seen.push_back(flag);
        opt.scenario.num_sessions = flags::read_int(flag, value(), 1);
      } else if (flag == "--rate-kbps") {
        shaping_seen.push_back(flag);
        opt.scenario.session_rate_bps =
            flags::read_number(flag, value(), 0, true) * 1e3;
      } else if (flag == "--area") {
        shaping_seen.push_back(flag);
        opt.scenario.area_m = flags::read_number(flag, value(), 0, true);
      } else if (flag == "--seed") {
        shaping_seen.push_back(flag);
        opt.scenario.seed = flags::read_u64(flag, value());
      } else if (flag == "--multihop") {
        shaping_seen.push_back(flag);
        opt.scenario.multihop = flags::read_bool01(flag, value());
      } else if (flag == "--renewables") {
        shaping_seen.push_back(flag);
        opt.scenario.renewables = flags::read_bool01(flag, value());
      } else if (flag == "--bs-radios") {
        shaping_seen.push_back(flag);
        opt.scenario.bs_radios = flags::read_int(flag, value(), 1);
      } else if (flag == "--user-radios") {
        shaping_seen.push_back(flag);
        opt.scenario.user_radios = flags::read_int(flag, value(), 1);
      } else if (flag == "--phy") {
        const std::size_t phy =
            flags::read_choice(flag, value(), {"min", "adaptive"});
        shaping_seen.push_back(flag);
        opt.scenario.phy_policy =
            phy == 0 ? core::ModelConfig::PhyPolicy::MinPowerFixedRate
                     : core::ModelConfig::PhyPolicy::MaxPowerAdaptiveRate;
      } else if (flag == "--tariff") {
        const std::string& v = value();
        shaping_seen.push_back(flag);
        int begin = 0, end = 0;
        double mult = 0.0;
        std::istringstream ss(v);
        char c1 = 0, c2 = 0;
        if (!(ss >> begin >> c1 >> end >> c2 >> mult) || c1 != ':' ||
            c2 != ':' || !ss.eof() || begin < 0 || end > 24 || begin > end ||
            mult <= 0.0)
          flags::reject(flag, "B:E:M with 0 <= B <= E <= 24 and M > 0", v);
        opt.scenario.tariff_multipliers =
            energy::time_of_use_tariff(24, begin, end, mult, 1.0);
      } else if (flag == "--mobility") {
        opt.mobility_mps = flags::read_number(flag, value(), 0);
      } else if (flag == "--V") {
        opt.V = flags::read_number(flag, value(), 0);
      } else if (flag == "--lambda") {
        shaping_seen.push_back(flag);
        opt.scenario.lambda = flags::read_number(flag, value(), 0);
      } else if (flag == "--slots") {
        opt.slots = flags::read_int(flag, value(), 0);
      } else if (flag == "--input-seed") {
        opt.input_seed = flags::read_u64(flag, value());
      } else if (flag == "--csv") {
        opt.csv_path = flags::read_path(flag, value());
      } else if (flag == "--trace") {
        opt.trace_path = flags::read_path(flag, value());
      } else if (flag == "--faults") {
        opt.faults_path = flags::read_path(flag, value());
      } else if (flag == "--checkpoint") {
        opt.checkpoint_path = flags::read_path(flag, value());
      } else if (flag == "--checkpoint-every") {
        opt.checkpoint_every = flags::read_int(flag, value(), 1);
      } else if (flag == "--max-restarts") {
        opt.max_restarts = flags::read_int(flag, value(), 0);
      } else if (flag == "--restart-backoff-ms") {
        opt.restart_backoff_ms = flags::read_int(flag, value(), 0);
      } else if (flag == "--reload-scenario") {
        opt.reload_scenario_path = flags::read_path(flag, value());
      } else if (flag == "--resume") {
        opt.resume_path = flags::read_path(flag, value());
      } else if (flag == "--trace-top-k") {
        opt.trace_top_k = flags::read_int(flag, value(), 0);
      } else if (flag == "--snapshot") {
        opt.snapshot_path = flags::read_path(flag, value());
      } else if (flag == "--snapshot-every") {
        opt.snapshot_every = flags::read_int(flag, value(), 1);
      } else if (flag == "--spans") {
        opt.spans_path = flags::read_path(flag, value());
      } else if (flag == "--profile") {
        opt.profile_path = flags::read_path(flag, value());
      } else if (flag == "--lp-log") {
        opt.lp_log_path = flags::read_path(flag, value());
      } else if (flag == "--link-prune") {
        opt.link_prune = flags::read_choice(flag, value(), {"on", "off"}) == 0;
      } else if (flag == "--policy") {
        ov.policy = static_cast<policy::SleepPolicy>(
            flags::read_choice(flag, value(), policy::kSleepPolicyNames));
      } else if (flag == "--sleep-threshold") {
        ov.sleep_threshold = flags::read_number(flag, value(), 0);
      } else if (flag == "--wake-threshold") {
        ov.wake_threshold = flags::read_number(flag, value(), 0);
      } else if (flag == "--sleep-dwell") {
        ov.min_dwell_slots = flags::read_int(flag, value(), 0);
      } else if (flag == "--min-awake-bs") {
        ov.min_awake_bs = flags::read_int(flag, value(), 1);
      } else if (flag == "--switch-cost-weight") {
        ov.switch_cost_weight = flags::read_number(flag, value(), 0);
      } else if (flag == "--metrics-port") {
        opt.metrics_port = flags::read_int(flag, value(), 0, 65535);
      } else if (flag == "--metrics-port-file") {
        opt.metrics_port_file = flags::read_path(flag, value());
      } else if (flag == "--events") {
        opt.events_path = flags::read_path(flag, value());
      } else if (flag == "--alerts") {
        opt.alerts_path = flags::read_path(flag, value());
      } else {
        return err("unknown flag " + flag +
                   " (see --help for accepted flags)");
      }
    }
  } catch (const flags::UsageError& e) {
    return err(e.what());
  }
  // The run's identity: the hash of the merged spec, the one
  // --print-scenario prints.
  ov.apply(opt.scenario.bs_sleep);
  const scenario::ScenarioSpec spec{opt.scenario_name, opt.scenario};
  opt.scenario_hash = scenario::scenario_hash(spec);
  opt.scenario_structural_hash = scenario::scenario_structural_hash(spec);
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
  if (opt.checkpoint_every > 0 && opt.checkpoint_path.empty())
    return err("--checkpoint-every requires --checkpoint (it sets the "
               "cadence of the checkpoint file)");
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
  // Output paths must be pairwise distinct, checked up front: two flags
  // aimed at one file would silently clobber each other. Each must also
  // land in a directory that exists, so a typo fails before slot 0 rather
  // than after the last slot has run.
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
    for (const auto& [flag, path] : outputs) {
      if (path->empty()) continue;
      const std::filesystem::path dir =
          std::filesystem::path(*path).parent_path();
      std::error_code ec;
      if (!dir.empty() && !std::filesystem::is_directory(dir, ec))
        return err(std::string(flag) + ": directory \"" + dir.string() +
                   "\" does not exist; create it first");
    }
  }
  return ParseResult{opt, ""};
}

}  // namespace gc::cli
