// scale_scenarios: throughput (controller slots/s) versus network size
// across the declarative example scenarios (examples/scenarios/*.json).
// Each spec is compiled through src/scenario, run single-threaded for
// --slots slots, and the row (nodes, base stations, users, sessions,
// setup_s, wall_s, slots_per_s, end_to_end_s) lands in the
// "scale_scenarios" array of BENCH_sweep.json, with the ms/slot of the S1
// sub-phases and the queue advance read from the run's spans
// (phase_ms_per_slot). The file is
// read-modify-written: bench_baseline's serial/parallel sweep section is
// preserved, only the scale_scenarios member is replaced.
// docs/PERFORMANCE.md explains the fields.
//
// --profile-dir DIR additionally captures a hierarchical span profile per
// scenario (obs/profile.hpp) at DIR/<name>.profile.json (+.collapsed), so
// the committed artifact decomposes WHERE each network size spends its
// slot — compare two scenarios' trees with tools/perf_report.
//
//   $ bench/scale_scenarios --dir examples/scenarios --slots 20
//   $ bench/scale_scenarios a.json b.json --out BENCH_sweep.json
//   $ bench/scale_scenarios --dir examples/scenarios --profile-dir bench/profiles
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "flags.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/timer.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"

namespace {

namespace fs = std::filesystem;
using gc::obs::JsonValue;

struct Args {
  std::vector<std::string> files;
  std::string dir;
  int slots = 20;
  std::string out = "BENCH_sweep.json";
  std::string profile_dir;  // empty = no per-scenario profile capture
  // --fast: run with link pruning on (--link-prune on). Profiles land at
  // <name>.fast.profile.json so the committed baseline artifacts stay
  // comparable (docs/PERFORMANCE.md "Scaling past 500 nodes").
  bool fast = false;
};

constexpr const char* kUsage =
    "usage: scale_scenarios [SPEC.json ...] [--dir DIR] [--slots N]\n"
    "                       [--out PATH] [--profile-dir DIR] [--fast]\n"
    "  --slots N   slots per scenario: int >= 1 (default 20)\n"
    "  --fast      run with link pruning on (--link-prune on)\n";

// Fills `out` from the arguments; false on --help. A malformed, missing or
// out-of-domain value, or no scenario file at all, throws
// gc::flags::UsageError.
bool parse_args(const std::vector<std::string>& argv, Args* out) {
  namespace flags = gc::flags;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& flag = argv[i];
    if (flag == "--help") return false;
    if (flag == "--fast") {
      out->fast = true;
      continue;
    }
    if (flag.rfind("--", 0) != 0) {
      out->files.push_back(flag);
      continue;
    }
    const std::string& v = flags::next_value(argv, i);
    if (flag == "--dir")
      out->dir = v;
    else if (flag == "--slots")
      out->slots = flags::read_int(flag, v, 1);
    else if (flag == "--out")
      out->out = v;
    else if (flag == "--profile-dir")
      out->profile_dir = v;
    else
      throw flags::UsageError("unknown flag " + flag);
  }
  if (!out->dir.empty()) {
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(out->dir, ec))
      if (e.path().extension() == ".json")
        out->files.push_back(e.path().string());
    if (ec) flags::reject("--dir", "a readable directory", out->dir);
  }
  std::sort(out->files.begin(), out->files.end());
  if (out->files.empty())
    throw flags::UsageError(
        "no scenario files (pass SPEC.json paths or --dir DIR)");
  return true;
}

// Minimal canonical dump of a parsed JsonValue, used to re-emit the
// sections of BENCH_sweep.json this bench does not own.
void dump(const JsonValue& v, std::string* out, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  switch (v.kind()) {
    case JsonValue::Kind::Null:
      *out += "null";
      break;
    case JsonValue::Kind::Bool:
      *out += v.as_bool() ? "true" : "false";
      break;
    case JsonValue::Kind::Number: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v.as_number());
      *out += buf;
      break;
    }
    case JsonValue::Kind::String:
      out->append("\"").append(gc::obs::json_escape(v.as_string()))
          .append("\"");
      break;
    case JsonValue::Kind::Array: {
      const auto& a = v.as_array();
      if (a.empty()) {
        *out += "[]";
        break;
      }
      *out += "[\n";
      for (std::size_t i = 0; i < a.size(); ++i) {
        out->append(pad).append("  ");
        dump(a[i], out, indent + 1);
        *out += i + 1 < a.size() ? ",\n" : "\n";
      }
      out->append(pad).append("]");
      break;
    }
    case JsonValue::Kind::Object: {
      const auto& o = v.as_object();
      if (o.empty()) {
        *out += "{}";
        break;
      }
      *out += "{\n";
      std::size_t i = 0;
      for (const auto& [k, val] : o) {
        out->append(pad).append("  \"").append(gc::obs::json_escape(k))
            .append("\": ");
        dump(val, out, indent + 1);
        *out += ++i < o.size() ? ",\n" : "\n";
      }
      out->append(pad).append("}");
      break;
    }
  }
}

// The phases a row reports in ms/slot, by span name
// (docs/OBSERVABILITY.md).
constexpr const char* kPhases[] = {"s1.candidates", "s1.sf", "s1.fill_in",
                                   "s1.power", "state.advance"};
constexpr std::size_t kNumPhases = std::size(kPhases);

// Total seconds of the spans named `name` anywhere under `node`.
double span_total_s(const gc::obs::ProfileNode& node, const char* name) {
  if (node.name == name) return node.total_s;
  double total = 0.0;
  for (const auto& [child_name, child] : node.children)
    total += span_total_s(child, name);
  return total;
}

struct Row {
  std::string name;
  int nodes = 0, bs = 0, users = 0, sessions = 0, slots = 0;
  bool fast = false;  // run with --fast (link pruning on)
  // setup_s: scenario load until the controller is ready (time to first
  // slot); wall_s: the run; end_to_end_s = setup_s + wall_s.
  double setup_s = 0.0, wall_s = 0.0, slots_per_s = 0.0, end_to_end_s = 0.0;
  double phase_ms[kNumPhases] = {};  // per slot, in kPhases order
};

// Every run is wrapped in a SpanRecorder capture, which yields the row's
// per-phase times. When profile_dir is non-empty the attribution tree also
// lands at profile_dir/<name>.profile.json (+.collapsed) — one artifact
// per scenario, comparable across network sizes with tools/perf_report.
Row run_one(const std::string& path, int slots,
            const std::string& profile_dir, bool fast) {
  const auto t_load = std::chrono::steady_clock::now();
  const gc::scenario::ScenarioSpec spec =
      gc::scenario::load_scenario_file(path);
  gc::sim::ScenarioConfig config = spec.config;
  if (fast) config.link_prune = true;
  const gc::core::NetworkModel model = config.build();
  gc::core::LyapunovController controller(model, 3.0,
                                          config.controller_options());
  const auto t_ready = std::chrono::steady_clock::now();
  gc::sim::SimOptions sim_opts;
  sim_opts.scenario_name = spec.name;
  sim_opts.scenario_hash = gc::scenario::scenario_hash(spec);
  auto& rec = gc::obs::SpanRecorder::instance();
  rec.enable();
  rec.drain();  // start each scenario's capture from an empty ring
  const auto t0 = std::chrono::steady_clock::now();
  const gc::sim::Metrics m =
      gc::sim::run_simulation(model, controller, slots, sim_opts);
  const auto t1 = std::chrono::steady_clock::now();
  Row row;
  row.name = spec.name;
  row.fast = fast;
  row.nodes = model.num_nodes();
  row.bs = model.topology().num_base_stations();
  row.users = model.topology().num_users();
  row.sessions = model.num_sessions();
  row.slots = m.slots;
  row.setup_s = std::chrono::duration<double>(t_ready - t_load).count();
  row.wall_s = std::chrono::duration<double>(t1 - t0).count();
  row.slots_per_s = row.wall_s > 0.0 ? m.slots / row.wall_s : 0.0;
  row.end_to_end_s = row.setup_s + row.wall_s;
  const std::int64_t dropped = rec.dropped();
  gc::obs::Profile p = gc::obs::build_profile(rec.drain());
  if (dropped > 0)
    std::fprintf(stderr,
                 "warning: %s: the span ring dropped %lld spans; its phase "
                 "times are low\n",
                 spec.name.c_str(), static_cast<long long>(dropped));
  for (std::size_t k = 0; k < kNumPhases; ++k)
    row.phase_ms[k] =
        m.slots > 0 ? span_total_s(p.root, kPhases[k]) * 1e3 / m.slots : 0.0;
  if (!profile_dir.empty()) {
    p.meta = gc::sim::make_profile_meta(spec.name, model, row.slots,
                                        row.wall_s, dropped);
    const std::string base =
        (fs::path(profile_dir) /
         (spec.name + (fast ? ".fast.profile.json" : ".profile.json")))
            .string();
    gc::sim::write_profile_files(base, p);
    std::printf("  profile written to %s\n", base.c_str());
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args({argv + 1, argv + argc}, &args)) {
      std::fprintf(stderr, "%s", kUsage);
      return 0;
    }
  } catch (const gc::flags::UsageError& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), kUsage);
    return 2;
  }

  try {
    if (!args.profile_dir.empty()) fs::create_directories(args.profile_dir);
    std::vector<Row> rows;
    for (const std::string& f : args.files) {
      std::printf("running %s (%d slots)...\n", f.c_str(), args.slots);
      rows.push_back(run_one(f, args.slots, args.profile_dir, args.fast));
      const Row& r = rows.back();
      std::printf("  %s: %d nodes (%d BS + %d users), %d sessions, "
                  "%.3f s setup, %.3f s wall, %.2f slots/s\n",
                  r.name.c_str(), r.nodes, r.bs, r.users, r.sessions,
                  r.setup_s, r.wall_s, r.slots_per_s);
      std::printf("  ms/slot:");
      for (std::size_t k = 0; k < kNumPhases; ++k)
        std::printf(" %s %.3f", kPhases[k], r.phase_ms[k]);
      std::printf("\n");
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.nodes < b.nodes; });

    // Read-modify-write: keep every member of the existing BENCH_sweep.json
    // except "scale_scenarios", which this bench owns.
    std::string body = "{\n";
    {
      std::ifstream in(args.out);
      if (in.good()) {
        std::stringstream ss;
        ss << in.rdbuf();
        const JsonValue prior = gc::obs::json_parse(ss.str());
        for (const auto& [k, v] : prior.as_object()) {
          if (k == "scale_scenarios") continue;
          body += "  \"" + gc::obs::json_escape(k) + "\": ";
          dump(v, &body, 1);
          body += ",\n";
        }
      }
    }
    body += "  \"scale_scenarios\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "    {\"scenario\": \"%s\", \"nodes\": %d, \"bs\": %d, "
                    "\"users\": %d, \"sessions\": %d, \"slots\": %d, "
                    "\"fast\": %s,\n"
                    "     \"setup_s\": %.6f, \"wall_s\": %.6f, "
                    "\"slots_per_s\": %.3f, \"end_to_end_s\": %.6f,\n"
                    "     \"phase_ms_per_slot\": {",
                    gc::obs::json_escape(r.name).c_str(), r.nodes, r.bs,
                    r.users, r.sessions, r.slots, r.fast ? "true" : "false",
                    r.setup_s, r.wall_s, r.slots_per_s, r.end_to_end_s);
      body += buf;
      for (std::size_t k = 0; k < kNumPhases; ++k) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.4f", k ? ", " : "",
                      kPhases[k], r.phase_ms[k]);
        body += buf;
      }
      body += i + 1 < rows.size() ? "}},\n" : "}}\n";
    }
    body += "  ]\n}\n";

    gc::util::write_file_atomic(args.out, body, "sweep result");
    std::printf("written to %s\n", args.out.c_str());
    return 0;
  } catch (const gc::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const fs::filesystem_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
