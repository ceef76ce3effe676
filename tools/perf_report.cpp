// perf_report: performance comparison and regression attribution over two
// artifacts — either BENCH_sweep.json files (bench_baseline /
// bench/scale_scenarios output) or gc.profile.v1 files (greencell_sim
// --profile). The mode is auto-detected from the artifact's shape.
//
// BENCH mode (the old bench_diff, kept verbatim in behavior): compares
// every section reporting slots_per_s — "serial", "parallel", and each
// scale-scenario row — and fails when any slowed down past the tolerance.
//
// Profile mode: normalizes both attribution trees to seconds per slot,
// ranks the tree paths (slot -> controller step -> S1..S4 -> lp.solve) by
// their share of the per-slot wall-time delta, prints each path's problem
// dimensions (LP columns, link counts) from both sides, and reports what
// fraction of the slots/s gap the tree explains. When the two profiles
// come from the SAME scenario the slots_per_s delta is gated by the
// tolerance (exit 1 past it); profiles of different scenarios (e.g.
// paper_baseline vs hex_16bs_500users) are attribution-only — the tool
// explains the gap instead of judging it.
//
//   $ perf_report old.profile.json new.profile.json --tolerance 0.05
//   $ perf_report paper.profile.json hex.profile.json --top 12
//   $ perf_report BENCH_old.json BENCH_new.json
//
// Exit codes: 0 = no regression (or attribution-only), 1 = regression or
// malformed input, 2 = usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "flags.hpp"
#include "obs/json.hpp"
#include "util/check.hpp"

namespace {

struct Args {
  std::string baseline;
  std::string candidate;
  double tolerance = 0.10;  // fractional slowdown allowed
  int top = 10;             // profile mode: paths listed
};

constexpr const char* kUsage =
    "usage: perf_report BASELINE CANDIDATE [--tolerance FRAC] [--top N]\n"
    "compares two BENCH_sweep.json or gc.profile.v1 artifacts\n"
    "(auto-detected). BENCH mode and same-scenario profile mode fail\n"
    "(exit 1) when slots_per_s regressed by more than FRAC, a number >= 0\n"
    "(default 0.10); profiles of different scenarios are attribution-only.\n"
    "--top N caps the ranked path list, an int >= 1 (default 10)\n";

// Fills `out` from the arguments; false on --help. A malformed, missing or
// out-of-domain value throws gc::flags::UsageError.
bool parse_args(const std::vector<std::string>& argv, Args* out) {
  namespace flags = gc::flags;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& flag = argv[i];
    if (flag == "--help") return false;
    if (flag == "--tolerance")
      out->tolerance = flags::read_number(flag, flags::next_value(argv, i), 0);
    else if (flag == "--top")
      out->top = flags::read_int(flag, flags::next_value(argv, i), 1);
    else if (!flag.empty() && flag[0] == '-')
      throw flags::UsageError("unknown flag " + flag);
    else
      positional.push_back(flag);
  }
  if (positional.size() != 2)
    throw flags::UsageError(
        "expected exactly two files (baseline, candidate), got " +
        std::to_string(positional.size()));
  out->baseline = positional[0];
  out->candidate = positional[1];
  return true;
}

gc::obs::JsonValue load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return gc::obs::json_parse(ss.str());
}

// ---------------------------------------------------------------- BENCH --

// One comparable throughput reading: "serial", "parallel", or
// "scale:<name>".
struct Section {
  std::string key;
  double slots_per_s = 0.0;
};

std::vector<Section> collect_sections(const gc::obs::JsonValue& bench) {
  std::vector<Section> out;
  for (const char* top : {"serial", "parallel"}) {
    if (!bench.has(top)) continue;
    const gc::obs::JsonValue& sec = bench.at(top);
    if (sec.is_object() && sec.has("slots_per_s"))
      out.push_back({top, sec.at("slots_per_s").as_number()});
  }
  if (bench.has("scale_scenarios")) {
    for (const gc::obs::JsonValue& row :
         bench.at("scale_scenarios").as_array()) {
      if (!row.is_object() || !row.has("slots_per_s")) continue;
      // bench/scale_scenarios keys its rows "scenario"; accept the older
      // "name" too (the old bench_diff looked only for "name" and silently
      // skipped every scale row).
      const char* key = row.has("scenario") ? "scenario"
                        : row.has("name")   ? "name"
                                            : nullptr;
      if (key == nullptr) continue;
      out.push_back({"scale:" + row.at(key).as_string(),
                     row.at("slots_per_s").as_number()});
    }
  }
  return out;
}

int run_bench_mode(const gc::obs::JsonValue& base_json,
                   const gc::obs::JsonValue& cand_json, const Args& args) {
  const std::vector<Section> base = collect_sections(base_json);
  const std::vector<Section> cand = collect_sections(cand_json);

  int compared = 0;
  int regressions = 0;
  for (const Section& b : base) {
    const Section* c = nullptr;
    for (const Section& s : cand)
      if (s.key == b.key) c = &s;
    if (c == nullptr) {
      std::printf("%-24s baseline %.3f slots/s, absent in candidate — "
                  "skipped\n",
                  b.key.c_str(), b.slots_per_s);
      continue;
    }
    ++compared;
    // A baseline of 0 slots/s carries no information to regress from.
    const double change =
        b.slots_per_s > 0.0
            ? (c->slots_per_s - b.slots_per_s) / b.slots_per_s
            : 0.0;
    const bool regressed = change < -args.tolerance;
    if (regressed) ++regressions;
    std::printf("%-24s %.3f -> %.3f slots/s (%+.1f%%)%s\n", b.key.c_str(),
                b.slots_per_s, c->slots_per_s, 100.0 * change,
                regressed ? "  REGRESSION" : "");
  }
  for (const Section& c : cand) {
    bool in_base = false;
    for (const Section& b : base)
      if (b.key == c.key) in_base = true;
    if (!in_base)
      std::printf("%-24s new in candidate (%.3f slots/s)\n", c.key.c_str(),
                  c.slots_per_s);
  }

  if (compared == 0) {
    std::fprintf(stderr,
                 "error: no section present in both files — nothing to "
                 "compare\n");
    return 1;
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "error: %d section(s) regressed beyond the %.0f%% "
                 "tolerance\n",
                 regressions, 100.0 * args.tolerance);
    return 1;
  }
  std::printf("ok: %d section(s) within %.0f%% of baseline\n", compared,
              100.0 * args.tolerance);
  return 0;
}

// -------------------------------------------------------------- profile --

// One flattened tree node: the ";"-joined path from the root.
struct PathStats {
  double total_s = 0.0;
  double self_s = 0.0;
  double count = 0.0;
  double dim_count = 0.0;
  double dim_mean = 0.0;
  double dim_min = 0.0;
  double dim_max = 0.0;
};

struct FlatProfile {
  std::string scenario;
  double nodes = 0.0;
  double links = 0.0;
  double links_pruned = 0.0;
  double slots = 0.0;
  double wall_s = 0.0;
  double slots_per_s = 0.0;
  double spans_dropped = 0.0;
  double root_total_s = 0.0;
  // Sleep-policy identity (the profile's "policy" object; empty name =
  // policy-free run). A speedup under a sleep policy may come from masked
  // base stations shrinking S1/S3, so the comparison surfaces it.
  std::string policy;
  double policy_switches = 0.0;
  double policy_sleep_slots = 0.0;
  std::map<std::string, PathStats> paths;  // sorted — deterministic output
};

void flatten_node(const gc::obs::JsonValue& node, const std::string& prefix,
                  FlatProfile* out) {
  const std::string name = node.at("name").as_string();
  const std::string path = prefix.empty() ? name : prefix + ";" + name;
  PathStats& s = out->paths[path];
  s.total_s = node.number_or("total_s", 0.0);
  s.self_s = node.number_or("self_s", 0.0);
  s.count = node.number_or("count", 0.0);
  s.dim_count = node.number_or("dim_count", 0.0);
  s.dim_mean = node.number_or("dim_mean", 0.0);
  s.dim_min = node.number_or("dim_min", 0.0);
  s.dim_max = node.number_or("dim_max", 0.0);
  if (node.has("children"))
    for (const gc::obs::JsonValue& child : node.at("children").as_array())
      flatten_node(child, path, out);
}

FlatProfile flatten_profile(const gc::obs::JsonValue& profile,
                            const std::string& file) {
  GC_CHECK_MSG(profile.has("root") && profile.has("slots_per_s"),
               file << " is not a gc.profile.v1 artifact");
  FlatProfile out;
  if (profile.has("scenario")) out.scenario = profile.at("scenario").as_string();
  out.nodes = profile.number_or("nodes", 0.0);
  out.links = profile.number_or("links", 0.0);
  out.links_pruned = profile.number_or("links_pruned", 0.0);
  out.slots = profile.number_or("slots", 0.0);
  out.wall_s = profile.number_or("wall_s", 0.0);
  out.slots_per_s = profile.number_or("slots_per_s", 0.0);
  out.spans_dropped = profile.number_or("spans_dropped", 0.0);
  if (profile.has("policy")) {
    const gc::obs::JsonValue& pol = profile.at("policy");
    if (pol.has("name")) out.policy = pol.at("name").as_string();
    out.policy_switches = pol.number_or("switches", 0.0);
    out.policy_sleep_slots = pol.number_or("sleep_slots", 0.0);
  }
  const gc::obs::JsonValue& root = profile.at("root");
  out.root_total_s = root.number_or("total_s", 0.0);
  if (root.has("children"))
    for (const gc::obs::JsonValue& child : root.at("children").as_array())
      flatten_node(child, "", &out);
  return out;
}

std::string dims_label(const PathStats& s) {
  if (s.dim_count <= 0.0) return "";
  char buf[96];
  if (s.dim_min == s.dim_max)
    std::snprintf(buf, sizeof buf, " dim=%.0f", s.dim_mean);
  else
    std::snprintf(buf, sizeof buf, " dim=%.0f..%.0f (mean %.1f)", s.dim_min,
                  s.dim_max, s.dim_mean);
  return buf;
}

int run_profile_mode(const gc::obs::JsonValue& base_json,
                     const gc::obs::JsonValue& cand_json, const Args& args) {
  const FlatProfile base = flatten_profile(base_json, args.baseline);
  const FlatProfile cand = flatten_profile(cand_json, args.candidate);
  GC_CHECK_MSG(base.slots > 0 && cand.slots > 0,
               "both profiles need slots > 0 to normalize per slot");

  // The pruned count attributes a speedup that comes from a smaller scan
  // rather than a faster solver (--link-prune; net/link_prune.hpp).
  const auto print_side = [](const char* label, const FlatProfile& p) {
    std::printf("%s: %-24s %6.0f nodes %8.0f links %8.0f slots  "
                "%12.3f slots/s",
                label, p.scenario.c_str(), p.nodes, p.links, p.slots,
                p.slots_per_s);
    if (p.links_pruned > 0)
      std::printf("  (%.0f pairs range-pruned)", p.links_pruned);
    if (!p.policy.empty())
      std::printf("  [policy %s: %.0f switches, %.0f BS-slots asleep]",
                  p.policy.c_str(), p.policy_switches, p.policy_sleep_slots);
    std::printf("\n");
  };
  print_side("baseline ", base);
  print_side("candidate", cand);
  if (base.policy != cand.policy)
    std::printf("note: sleep policies differ (baseline %s, candidate %s) — "
                "per-slot deltas include the policy's masking effect\n",
                base.policy.empty() ? "none" : base.policy.c_str(),
                cand.policy.empty() ? "none" : cand.policy.c_str());
  if (base.spans_dropped > 0 || cand.spans_dropped > 0)
    std::printf("warning: span ring dropped events during capture "
                "(baseline %.0f, candidate %.0f) — trees may be partial\n",
                base.spans_dropped, cand.spans_dropped);

  // Everything below compares seconds PER SLOT, the scale-free unit.
  GC_CHECK_MSG(base.slots_per_s > 0.0 && cand.slots_per_s > 0.0,
               "both profiles need slots_per_s > 0");
  const double base_slot_s = 1.0 / base.slots_per_s;
  const double cand_slot_s = 1.0 / cand.slots_per_s;
  const double wall_delta = cand_slot_s - base_slot_s;
  std::printf("per-slot wall time: %.6f s -> %.6f s (%+.6f s, %.1fx)\n",
              base_slot_s, cand_slot_s, wall_delta,
              base_slot_s > 0.0 ? cand_slot_s / base_slot_s : 0.0);

  // Rank every path by its self-time-per-slot delta (self, not total:
  // totals double-count their children). The union of paths covers nodes
  // present in only one tree (delta from/to zero).
  struct Ranked {
    std::string path;
    double delta_s;  // per slot
    const PathStats* b;
    const PathStats* c;
  };
  std::vector<Ranked> ranked;
  for (const auto& [path, bs] : base.paths) {
    auto it = cand.paths.find(path);
    const double b = bs.self_s / base.slots;
    const double c = it != cand.paths.end()
                         ? it->second.self_s / cand.slots
                         : 0.0;
    ranked.push_back(
        {path, c - b, &bs, it != cand.paths.end() ? &it->second : nullptr});
  }
  for (const auto& [path, cs] : cand.paths)
    if (base.paths.find(path) == base.paths.end())
      ranked.push_back({path, cs.self_s / cand.slots, nullptr, &cs});
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) {
                     return std::abs(a.delta_s) > std::abs(b.delta_s);
                   });

  std::printf("\ntop phases by per-slot self-time delta "
              "(candidate - baseline):\n");
  const int shown = std::min<int>(args.top, static_cast<int>(ranked.size()));
  for (int i = 0; i < shown; ++i) {
    const Ranked& r = ranked[static_cast<std::size_t>(i)];
    const double share =
        wall_delta != 0.0 ? 100.0 * r.delta_s / wall_delta : 0.0;
    std::printf("  %+12.6f s/slot  %5.1f%%  %s", r.delta_s, share,
                r.path.c_str());
    const PathStats* dims = r.c != nullptr ? r.c : r.b;
    std::printf("%s\n", dims_label(*dims).c_str());
  }

  // Attribution coverage: how much of the wall-clock per-slot delta the
  // span tree explains. (The remainder is untraced work — model sampling,
  // queue updates — plus timer skew.)
  const double tree_delta =
      cand.root_total_s / cand.slots - base.root_total_s / base.slots;
  const double coverage =
      wall_delta != 0.0 ? 100.0 * tree_delta / wall_delta : 100.0;
  std::printf("\nattribution: the span tree explains %+.6f of the %+.6f "
              "s/slot delta (%.1f%%)\n",
              tree_delta, wall_delta, coverage);

  const bool same_scenario =
      !base.scenario.empty() && base.scenario == cand.scenario;
  if (!same_scenario) {
    std::printf("scenarios differ — attribution only, no regression gate\n");
    return 0;
  }
  const double change =
      base.slots_per_s > 0.0
          ? (cand.slots_per_s - base.slots_per_s) / base.slots_per_s
          : 0.0;
  if (change < -args.tolerance) {
    std::fprintf(stderr,
                 "error: %s regressed %.1f%% in slots/s, beyond the %.0f%% "
                 "tolerance\n",
                 base.scenario.c_str(), -100.0 * change,
                 100.0 * args.tolerance);
    return 1;
  }
  std::printf("ok: %s slots/s change %+.1f%% within %.0f%% tolerance\n",
              base.scenario.c_str(), 100.0 * change, 100.0 * args.tolerance);
  return 0;
}

bool is_profile(const gc::obs::JsonValue& v) {
  return v.is_object() && v.has("schema") &&
         v.at("schema").as_string() == "gc.profile.v1";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args({argv + 1, argv + argc}, &args)) {
      std::fputs(kUsage, stdout);
      return 0;
    }
  } catch (const gc::flags::UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    const gc::obs::JsonValue base = load_json(args.baseline);
    const gc::obs::JsonValue cand = load_json(args.candidate);
    const bool bp = is_profile(base), cp = is_profile(cand);
    if (bp != cp) {
      std::fprintf(stderr,
                   "error: cannot compare a profile with a BENCH file "
                   "(%s is %s, %s is %s)\n",
                   args.baseline.c_str(), bp ? "a profile" : "BENCH",
                   args.candidate.c_str(), cp ? "a profile" : "BENCH");
      return 1;
    }
    return bp ? run_profile_mode(base, cand, args)
              : run_bench_mode(base, cand, args);
  } catch (const std::exception& e) {  // CheckError, or an unreadable file
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
