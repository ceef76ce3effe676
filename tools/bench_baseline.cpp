// bench_baseline: serial-vs-parallel sweep benchmark for the parallel
// sweep engine (sim/sweep.hpp). Runs the same batch of replicate
// simulations once on 1 worker thread and once on --threads workers,
// verifies the per-seed Metrics are bit-identical, and writes the numbers
// (wall time, slots/sec, speedup, LP solver volumes) as BENCH_sweep.json.
// docs/PERFORMANCE.md explains every field.
//
//   $ bench_baseline --scenario tiny --seeds 4 --slots 15000 --threads 2
//   $ bench_baseline --out BENCH_sweep.json
#include <bit>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "flags.hpp"
#include "obs/registry.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"
#include "util/thread_pool.hpp"

namespace {

using gc::sim::Metrics;
using gc::sim::SimJob;

struct Args {
  int threads = 0;  // 0 = all hardware threads
  int seeds = 8;
  int slots = 40;
  std::string scenario = "paper";
  std::string out = "BENCH_sweep.json";
};

constexpr const char* kUsage =
    "usage: bench_baseline [--threads N] [--seeds N] [--slots N]\n"
    "                      [--scenario paper|tiny] [--out PATH]\n"
    "  --threads N   parallel-pass workers: int >= 0 and <= 256 (default 0 =\n"
    "                all hardware threads)\n"
    "  --seeds N     replicates: int >= 1 (default 8)\n"
    "  --slots N     slots per replicate: int >= 1 (default 40)\n";

// Fills `out` from the flags; false on --help. A malformed, missing or
// out-of-domain value throws gc::flags::UsageError.
bool parse_args(const std::vector<std::string>& argv, Args* out) {
  namespace flags = gc::flags;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& flag = argv[i];
    if (flag == "--help") return false;
    const std::string& v = flags::next_value(argv, i);
    if (flag == "--threads")
      out->threads = flags::read_threads(flag, v);
    else if (flag == "--seeds")
      out->seeds = flags::read_int(flag, v, 1);
    else if (flag == "--slots")
      out->slots = flags::read_int(flag, v, 1);
    else if (flag == "--scenario") {
      flags::read_choice(flag, v, {"paper", "tiny"});
      out->scenario = v;
    } else if (flag == "--out")
      out->out = v;
    else
      throw flags::UsageError("unknown flag " + flag);
  }
  return true;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool series_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bits_equal(a[i], b[i])) return false;
  return true;
}

// Bit-level equality of everything a run's Metrics records except wall
// clock (timing is the one field allowed to differ between runs).
bool metrics_equal(const Metrics& a, const Metrics& b) {
  return a.slots == b.slots && series_equal(a.cost, b.cost) &&
         series_equal(a.grid_j, b.grid_j) && series_equal(a.q_bs, b.q_bs) &&
         series_equal(a.q_users, b.q_users) &&
         series_equal(a.battery_bs_j, b.battery_bs_j) &&
         series_equal(a.battery_users_j, b.battery_users_j) &&
         bits_equal(a.cost_avg.average(), b.cost_avg.average()) &&
         bits_equal(a.total_demand_shortfall, b.total_demand_shortfall) &&
         bits_equal(a.total_unserved_energy_j, b.total_unserved_energy_j) &&
         bits_equal(a.total_curtailed_j, b.total_curtailed_j) &&
         bits_equal(a.total_delivered_packets, b.total_delivered_packets) &&
         bits_equal(a.total_admitted_packets, b.total_admitted_packets);
}

struct Timed {
  std::vector<Metrics> runs;
  double wall_s = 0.0;
  double lp_solves = 0.0;
  double lp_iterations = 0.0;
};

// Runs `jobs` on `threads` workers, observability into a private registry
// so the serial and parallel passes can report their LP volumes
// separately.
Timed timed_sweep(const std::vector<SimJob>& jobs, int threads) {
  gc::obs::Registry registry;
  gc::sim::SweepOptions opt;
  opt.threads = threads;
  opt.merge_into = &registry;
  gc::sim::SweepRunner runner(opt);
  Timed result;
  const auto t0 = std::chrono::steady_clock::now();
  result.runs = runner.run(jobs);
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(t1 - t0).count();
  result.lp_solves = registry.counter("lp.solves").total();
  result.lp_iterations = registry.counter("lp.iterations").total();
  return result;
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

  std::vector<SimJob> jobs;
  for (int k = 0; k < args.seeds; ++k) {
    SimJob job;
    job.scenario = args.scenario == "tiny"
                       ? gc::sim::ScenarioConfig::tiny()
                       : gc::sim::ScenarioConfig::paper();
    job.slots = args.slots;
    job.sim.input_seed = 1000 + static_cast<std::uint64_t>(k);
    jobs.push_back(job);
  }

  try {
    const Timed serial = timed_sweep(jobs, 1);
    const Timed parallel = timed_sweep(jobs, args.threads);
    const int threads_used =
        gc::util::ThreadPool::resolve_num_threads(args.threads);

    bool deterministic = true;
    for (int k = 0; k < args.seeds; ++k)
      deterministic =
          deterministic && metrics_equal(serial.runs[k], parallel.runs[k]);

    const double total_slots =
        static_cast<double>(args.seeds) * args.slots;
    const double speedup =
        parallel.wall_s > 0.0 ? serial.wall_s / parallel.wall_s : 0.0;

    char buf[2048];
    std::snprintf(
        buf, sizeof buf,
        "{\n"
        "  \"scenario\": \"%s\",\n"
        "  \"seeds\": %d,\n"
        "  \"slots_per_seed\": %d,\n"
        "  \"total_slots\": %.0f,\n"
        "  \"threads\": %d,\n"
        "  \"serial\": {\"wall_s\": %.6f, \"slots_per_s\": %.3f,\n"
        "             \"lp_solves\": %.0f, \"lp_iterations\": %.0f},\n"
        "  \"parallel\": {\"wall_s\": %.6f, \"slots_per_s\": %.3f,\n"
        "               \"lp_solves\": %.0f, \"lp_iterations\": %.0f},\n"
        "  \"speedup\": %.3f,\n"
        "  \"deterministic\": %s\n"
        "}\n",
        args.scenario.c_str(), args.seeds, args.slots, total_slots,
        threads_used, serial.wall_s,
        serial.wall_s > 0.0 ? total_slots / serial.wall_s : 0.0,
        serial.lp_solves, serial.lp_iterations, parallel.wall_s,
        parallel.wall_s > 0.0 ? total_slots / parallel.wall_s : 0.0,
        parallel.lp_solves, parallel.lp_iterations, speedup,
        deterministic ? "true" : "false");
    gc::util::write_file_atomic(args.out, buf, "sweep result");
    std::printf("%s", buf);
    std::printf("written to %s\n", args.out.c_str());
    if (!deterministic) {
      std::fprintf(stderr,
                   "error: parallel per-seed Metrics differ from serial\n");
      return 1;
    }
    return 0;
  } catch (const gc::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
