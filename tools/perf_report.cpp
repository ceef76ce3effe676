// perf_report: performance comparison and regression attribution over two
// gc.profile.v1 profiles (greencell_sim --profile), the one performance
// artifact (docs/PERFORMANCE.md "Per-tier profiles"). Any other input is
// refused (exit 1).
//
// It normalizes both attribution trees to seconds per slot, ranks the
// tree paths (slot -> controller step -> S1..S4 -> lp.solve) by their
// share of the per-slot wall-time delta, prints each path's work on both
// sides (spans per slot and mean problem dimension: LP columns, link
// counts, rows screened), baseline -> candidate, and reports what
// fraction of the slots/s gap the tree explains. When the two profiles
// come from the SAME scenario the slots_per_s delta is gated by the
// tolerance (exit 1 past it); profiles of different scenarios (e.g.
// paper_baseline vs hex_16bs_500users) are attribution-only — the tool
// explains the gap instead of judging it.
//
//   $ perf_report old.profile.json new.profile.json --tolerance 0.05
//   $ perf_report paper.profile.json hex.profile.json --top 12
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
  int top = 10;             // paths listed
};

constexpr const char* kUsage =
    "usage: perf_report BASELINE CANDIDATE [--tolerance FRAC] [--top N]\n"
    "compares two gc.profile.v1 profiles (greencell_sim --profile).\n"
    "Profiles of the same scenario fail (exit 1) when slots_per_s\n"
    "regressed by more than FRAC, a number >= 0 (default 0.10); profiles\n"
    "of different scenarios are attribution-only.\n"
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
  try {
    return gc::obs::json_parse(ss.str());
  } catch (const gc::CheckError& e) {
    throw gc::CheckError(path + ": " + e.what());
  }
}

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

// Reads and flattens the profile at `path`. Anything that is not a
// well-formed gc.profile.v1 profile with slots to normalize by is refused
// with a plain message naming the file.
FlatProfile load_profile(const std::string& path) {
  const gc::obs::JsonValue profile = load_json(path);
  const auto refuse = [&path]() -> std::runtime_error {
    return std::runtime_error(path + " is not a gc.profile.v1 profile");
  };
  if (!profile.is_object() || !profile.has("schema") ||
      profile.at("schema").kind() != gc::obs::JsonValue::Kind::String ||
      profile.at("schema").as_string() != "gc.profile.v1" ||
      !profile.has("root") || !profile.at("root").is_object())
    throw refuse();
  FlatProfile out;
  try {
    if (profile.has("scenario"))
      out.scenario = profile.at("scenario").as_string();
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
  } catch (const gc::CheckError&) {  // a member missing or of the wrong kind
    throw refuse();
  }
  // Everything is compared in seconds PER SLOT.
  if (out.slots <= 0.0 || out.slots_per_s <= 0.0)
    throw std::runtime_error(path +
                             ": needs slots > 0 and slots_per_s > 0 to "
                             "normalize per slot");
  return out;
}

// One side's dim: its value when every span had the same one, else the
// mean and the range; "-" when the side has no such phase or no dims.
std::string dim_side(const PathStats* s) {
  if (s == nullptr || s->dim_count <= 0.0) return "-";
  char buf[96];
  if (s->dim_min == s->dim_max)
    std::snprintf(buf, sizeof buf, "%.0f", s->dim_mean);
  else
    std::snprintf(buf, sizeof buf, "%.1f [%.0f..%.0f]", s->dim_mean,
                  s->dim_min, s->dim_max);
  return buf;
}

// The work a phase did on both sides, baseline -> candidate: its spans per
// slot and its mean dim per span (item 17's work counts), so a change in
// work shows beside the change in time.
std::string work_label(const PathStats* b, double b_slots, const PathStats* c,
                       double c_slots) {
  const auto calls = [](const PathStats* s, double slots) -> std::string {
    if (s == nullptr) return "-";
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.2f", s->count / slots);
    return buf;
  };
  std::string out =
      "  calls/slot " + calls(b, b_slots) + " -> " + calls(c, c_slots);
  const std::string bd = dim_side(b), cd = dim_side(c);
  if (bd != "-" || cd != "-") out += ", dim mean " + bd + " -> " + cd;
  return out;
}

// Prints the attribution of the per-slot delta; 1 when a same-scenario
// comparison regressed past the tolerance.
int compare(const FlatProfile& base, const FlatProfile& cand,
            const Args& args) {
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
    std::printf("  %+12.6f s/slot  %5.1f%%  %s%s\n", r.delta_s, share,
                r.path.c_str(),
                work_label(r.b, base.slots, r.c, cand.slots).c_str());
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
    const FlatProfile base = load_profile(args.baseline);
    return compare(base, load_profile(args.candidate), args);
  } catch (const std::exception& e) {  // unreadable, not JSON, or refused
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
