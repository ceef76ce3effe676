// trace_summarize: aggregates a greencell_sim --trace JSONL file into a
// human-readable stability report.
//
//   $ greencell_sim --slots 200 --trace run.jsonl
//   $ trace_summarize run.jsonl
//
// Sections: horizon, queue stability (partial-average probe of Definition
// 2 over the traced backlog series), the stability auditor's group when
// the trace carries one (Lyapunov drift, bound margins, violation counts),
// the sleep-policy group when one is present (awake-set occupancy, switch
// totals), energy totals, traffic totals, and the nodes that dominated the
// per-slot top-backlog drill-down. Wall time is not in a trace; the
// greencell_sim --report timers and --profile carry it.
//
// --strict turns the malformed-line warnings into a failure: any skipped
// record (torn tail included) exits 1, so CI can assert a trace is whole.
// --events FILE adds a section over a --events journal: per-kind counts,
// restart/reload lifecycle lines, and the slot-event sequence range.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "flags.hpp"
#include "obs/json.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace {

using gc::obs::JsonValue;

struct Series {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  double total() const {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  }
  double mean() const { return v.empty() ? 0.0 : total() / v.size(); }
  double max() const {
    double m = 0.0;
    for (double x : v) m = std::max(m, x);
    return m;
  }
  // Exact sample quantile (nearest-rank on the sorted copy), q in [0, 1].
  double quantile(double q) const {
    if (v.empty()) return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    return s[static_cast<std::size_t>(q * (s.size() - 1))];
  }
  double p95() const { return quantile(0.95); }
  double min() const {
    double m = v.empty() ? 0.0 : v.front();
    for (double x : v) m = std::min(m, x);
    return m;
  }
  double last() const { return v.empty() ? 0.0 : v.back(); }
};

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  std::string events_path;
  const char* trace_arg = nullptr;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--strict") {
      strict = true;
    } else if (args[i] == "--events") {
      try {
        events_path = gc::flags::next_value(args, i);
      } catch (const gc::flags::UsageError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (trace_arg == nullptr) {
      trace_arg = args[i].c_str();
    } else {
      trace_arg = nullptr;  // a second positional: fall through to usage
      break;
    }
  }
  if (trace_arg == nullptr) {
    std::fprintf(stderr,
                 "usage: trace_summarize [--strict] [--events FILE] "
                 "TRACE.jsonl\n");
    return 2;
  }
  std::ifstream in(trace_arg);
  if (!in.good()) {
    std::fprintf(stderr, "error: cannot open %s\n", trace_arg);
    return 1;
  }

  Series backlog, h_total, grid, cost, curtailed,
      unserved, admitted, delivered, shortfall, links, fallbacks, degraded,
      faults;
  // Stability auditor group (every simulator run writes it;
  // docs/OBSERVABILITY.md).
  Series lyapunov, drift, dpp, q_margin, z_margin, violations,
      unstable_windows;
  // Sleep-policy group (present when the producing run had an active
  // --policy / bs.sleep block; src/policy).
  Series awake_bs, asleep_bs, waking_bs, policy_switches, switch_energy;
  gc::StabilityTracker backlog_stability;
  // node -> (slots in the top-k drill-down, worst backlog seen there)
  std::map<int, std::pair<int, double>> hot_nodes;

  std::string line;
  int lineno = 0;
  int skipped = 0;
  // When the FILE'S LAST line is the malformed one, it is a torn tail — a
  // crash landed mid-write — and is reported as such (with the slot the
  // record belongs to, recoverable from the intact "t": prefix) rather
  // than as generic corruption.
  bool last_line_malformed = false;
  int torn_lineno = 0;
  std::string torn_line;
  // From the trace header record (first line since the scenario subsystem;
  // absent in older traces, which start directly with slot records).
  std::string scenario_name, scenario_hash;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    // Malformed or torn lines (a crash mid-write leaves a truncated last
    // record; see docs/ROBUSTNESS.md) are skipped with a warning instead of
    // aborting the whole summary.
    try {
      const JsonValue rec = gc::obs::json_parse(line);
      last_line_malformed = false;
      if (rec.has("scenario")) {
        const JsonValue& sc = rec.at("scenario");
        scenario_name = sc.at("name").as_string();
        scenario_hash = sc.at("hash").as_string();
        continue;
      }
      const JsonValue& q = rec.at("queues");
      const JsonValue& e = rec.at("energy");
      const JsonValue& d = rec.at("decisions");
      const double b = q.number_or("q_bs", 0.0) + q.number_or("q_users", 0.0);
      backlog.add(b);
      backlog_stability.add(b);
      h_total.add(q.number_or("h_total", 0.0));
      grid.add(e.number_or("grid_j", 0.0));
      cost.add(e.number_or("cost", 0.0));
      curtailed.add(e.number_or("curtailed_j", 0.0));
      unserved.add(e.number_or("unserved_j", 0.0));
      admitted.add(d.number_or("admitted", 0.0));
      delivered.add(d.number_or("delivered", 0.0));
      shortfall.add(d.number_or("shortfall", 0.0));
      links.add(d.number_or("links", 0.0));
      if (rec.has("stability")) {
        const JsonValue& st = rec.at("stability");
        lyapunov.add(st.number_or("lyapunov", 0.0));
        drift.add(st.number_or("drift", 0.0));
        dpp.add(st.number_or("dpp", 0.0));
        q_margin.add(st.number_or("worst_q_margin", 0.0));
        z_margin.add(st.number_or("worst_z_margin_j", 0.0));
        violations.add(st.number_or("violations", 0.0));
        unstable_windows.add(st.number_or("window_unstable", 0.0));
      }
      if (rec.has("policy")) {
        const JsonValue& p = rec.at("policy");
        awake_bs.add(p.number_or("awake_bs", 0.0));
        asleep_bs.add(p.number_or("asleep_bs", 0.0));
        waking_bs.add(p.number_or("waking_bs", 0.0));
        policy_switches.add(p.number_or("switches", 0.0));
        switch_energy.add(p.number_or("switch_energy_j", 0.0));
      }
      if (rec.has("robust")) {
        const JsonValue& r = rec.at("robust");
        fallbacks.add(r.number_or("fallbacks", 0.0));
        degraded.add(r.number_or("degraded", 0.0));
        faults.add(r.number_or("faults", 0.0));
      }
      if (rec.has("top_backlog")) {
        for (const JsonValue& n : rec.at("top_backlog").as_array()) {
          const int node = static_cast<int>(n.number_or("node", -1.0));
          auto& [count, worst] = hot_nodes[node];
          ++count;
          worst = std::max(worst, n.number_or("packets", 0.0));
        }
      }
    } catch (const gc::CheckError& e) {
      std::fprintf(stderr, "warning: %s:%d: skipping malformed record: %s\n",
                   trace_arg, lineno, e.what());
      ++skipped;
      last_line_malformed = true;
      torn_lineno = lineno;
      torn_line = line;
      continue;
    }
  }
  if (last_line_malformed) {
    // Slot records lead with {"t":N,... and tearing truncates the line's
    // END, so the slot index survives even in a torn tail.
    int torn_slot = -1;
    const std::size_t at = torn_line.find("\"t\":");
    if (at != std::string::npos)
      torn_slot = std::atoi(torn_line.c_str() + at + 4);
    if (torn_slot >= 0)
      std::fprintf(stderr,
                   "warning: %s:%d is a torn tail for slot %d (crash "
                   "mid-write); a --supervise resume truncates and rewrites "
                   "it (docs/ROBUSTNESS.md)\n",
                   trace_arg, torn_lineno, torn_slot);
    else
      std::fprintf(stderr,
                   "warning: %s:%d is a torn tail (crash mid-write, slot "
                   "unrecoverable); a --supervise resume truncates and "
                   "rewrites it (docs/ROBUSTNESS.md)\n",
                   trace_arg, torn_lineno);
  }
  if (skipped > 0)
    std::fprintf(stderr, "warning: skipped %d malformed record%s in %s\n",
                 skipped, skipped == 1 ? "" : "s", trace_arg);
  if (strict && skipped > 0) {
    std::fprintf(stderr,
                 "error: --strict: %d malformed record%s%s in %s\n", skipped,
                 skipped == 1 ? "" : "s",
                 last_line_malformed ? " (including a torn tail)" : "",
                 trace_arg);
    return 1;
  }

  const int slots = static_cast<int>(backlog.v.size());
  if (slots == 0) {
    std::fprintf(stderr, "error: %s holds no trace records\n", trace_arg);
    return 1;
  }

  std::printf("trace: %s — %d slots\n", trace_arg, slots);
  if (!scenario_name.empty())
    std::printf("scenario: %s (hash %s)\n", scenario_name.c_str(),
                scenario_hash.c_str());

  std::printf("\n-- queue stability (Definition 2 probe) --\n");
  std::printf("  backlog packets:   mean %.1f, p95 %.1f, max %.1f, final %.1f\n",
              backlog.mean(), backlog.p95(), backlog.max(), backlog.last());
  std::printf("  virtual queue sum: mean %.1f, final %.1f\n", h_total.mean(),
              h_total.last());
  std::printf("  partial-average sup %.2f (tail sup %.2f), tail growth %.4g/slot\n",
              backlog_stability.sup_partial_average(),
              backlog_stability.tail_sup_partial_average(),
              backlog_stability.tail_growth_rate());
  const double growth = backlog_stability.tail_growth_rate();
  const double scale = std::max(1.0, backlog_stability.sup_partial_average());
  std::printf("  verdict: %s\n",
              growth < 0.01 * scale
                  ? "stable-looking (flat partial averages)"
                  : "POSSIBLY UNSTABLE (partial averages still growing)");

  if (!lyapunov.v.empty()) {
    std::printf("\n-- stability auditor --\n");
    std::printf("  Lyapunov L(Theta): first %.6g, last %.6g, max %.6g\n",
                lyapunov.v.front(), lyapunov.last(), lyapunov.max());
    std::printf("  one-slot drift:    mean %.6g, p95 %.6g, max %.6g\n",
                drift.mean(), drift.quantile(0.95), drift.max());
    std::printf("  drift+penalty:     mean %.6g, p95 %.6g, max %.6g\n",
                dpp.mean(), dpp.quantile(0.95), dpp.max());
    std::printf("  worst queue margin %.1f packets, worst battery margin "
                "%.1f J (min over run; negative = bound violated)\n",
                q_margin.min(), z_margin.min());
    std::printf("  bound violations:  %.0f across %d audited slots, "
                "%.0f unstable windows\n",
                violations.total(), static_cast<int>(violations.v.size()),
                unstable_windows.total());
  }

  if (!awake_bs.v.empty()) {
    const double n_bs =
        awake_bs.last() + asleep_bs.last() + waking_bs.last();
    std::printf("\n-- sleep policy --\n");
    std::printf("  awake BS:   mean %.2f of %.0f (%.1f%% awake), min %.0f\n",
                awake_bs.mean(), n_bs,
                100.0 * awake_bs.mean() / std::max(1.0, n_bs),
                awake_bs.min());
    std::printf("  asleep BS:  mean %.2f, max %.0f   waking BS: mean %.2f\n",
                asleep_bs.mean(), asleep_bs.max(), waking_bs.mean());
    // switches / switch_energy_j are run-cumulative in each record, so the
    // final value is the run total.
    std::printf("  switches:   %.0f total, %.1f J switching energy\n",
                policy_switches.last(), switch_energy.last());
  }

  std::printf("\n-- energy --\n");
  std::printf("  grid draw:  %.1f kJ total, %.1f J/slot mean\n",
              grid.total() / 1e3, grid.mean());
  std::printf("  cost:       %.6g total, %.6g/slot mean\n", cost.total(),
              cost.mean());
  std::printf("  curtailed:  %.1f kJ   unserved: %.1f J\n",
              curtailed.total() / 1e3, unserved.total());

  std::printf("\n-- traffic --\n");
  std::printf("  admitted %.0f, delivered %.0f (%.1f%%), shortfall %.0f packets\n",
              admitted.total(), delivered.total(),
              100.0 * delivered.total() / std::max(1.0, admitted.total()),
              shortfall.total());
  std::printf("  scheduled links: %.1f/slot mean, %.0f max\n", links.mean(),
              links.max());

  if (fallbacks.total() > 0.0 || degraded.total() > 0.0 ||
      faults.total() > 0.0) {
    std::printf("\n-- robustness --\n");
    std::printf("  solver fallbacks: %.0f across %.0f degraded slots\n",
                fallbacks.total(), degraded.total());
    std::printf("  injected fault events: %.0f (%.0f max in one slot)\n",
                faults.total(), faults.max());
  }

  if (!hot_nodes.empty()) {
    std::vector<std::pair<int, std::pair<int, double>>> hot(
        hot_nodes.begin(), hot_nodes.end());
    std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      if (a.second.second != b.second.second)
        return a.second.second > b.second.second;
      return a.first < b.first;
    });
    std::printf("\n-- hottest nodes (per-slot top-backlog drill-down) --\n");
    std::printf("  %-8s%14s%18s\n", "node", "worst_backlog", "slots_in_top_k");
    for (std::size_t i = 0; i < std::min<std::size_t>(hot.size(), 5); ++i)
      std::printf("  %-8d%14.1f%18d\n", hot[i].first, hot[i].second.second,
                  hot[i].second.first);
  }

  // --events: per-kind counts over a structured event journal, the
  // restart/reload lifecycle lines spelled out (they tell the recovery
  // story), and the slot-event sequence range (docs/OBSERVABILITY.md
  // "Operating live runs").
  if (!events_path.empty()) {
    std::ifstream ev(events_path);
    if (!ev.good()) {
      std::fprintf(stderr, "error: cannot open %s\n", events_path.c_str());
      return 1;
    }
    std::map<std::string, int> kind_counts;
    long long seq_min = -1, seq_max = -1;
    int ev_skipped = 0, ev_lineno = 0;
    struct Lifecycle {
      std::string kind;
      int at = 0;
      double value = 0.0;
    };
    std::vector<Lifecycle> lifecycle;
    while (std::getline(ev, line)) {
      ++ev_lineno;
      if (line.empty()) continue;
      try {
        const JsonValue rec = gc::obs::json_parse(line);
        const std::string kind = rec.at("kind").as_string();
        ++kind_counts[kind];
        if (rec.has("seq")) {
          const long long seq =
              static_cast<long long>(rec.at("seq").as_number());
          if (seq_min < 0 || seq < seq_min) seq_min = seq;
          if (seq > seq_max) seq_max = seq;
        } else {
          lifecycle.push_back({kind,
                               static_cast<int>(rec.number_or("at", 0.0)),
                               rec.number_or("value", 0.0)});
        }
      } catch (const gc::CheckError& e) {
        std::fprintf(stderr,
                     "warning: %s:%d: skipping malformed event: %s\n",
                     events_path.c_str(), ev_lineno, e.what());
        ++ev_skipped;
      }
    }
    std::printf("\n-- events (%s) --\n", events_path.c_str());
    for (const auto& [kind, count] : kind_counts)
      std::printf("  %-20s%8d\n", kind.c_str(), count);
    if (seq_min >= 0)
      std::printf("  slot-event seq range: %lld..%lld\n", seq_min, seq_max);
    for (const Lifecycle& l : lifecycle)
      std::printf("  lifecycle: %s at slot %d (value %g)\n", l.kind.c_str(),
                  l.at, l.value);
    if (strict && ev_skipped > 0) {
      std::fprintf(stderr,
                   "error: --strict: %d malformed event line%s in %s\n",
                   ev_skipped, ev_skipped == 1 ? "" : "s",
                   events_path.c_str());
      return 1;
    }
  }
  return 0;
}
