#include "common.hpp"

#include <cstdio>
#include <cstdlib>

#include "flags.hpp"

namespace gc::bench {

int env_int(const char* name, int fallback, int lo, int hi) {
  try {
    return flags::env_int(name, fallback, lo, hi);
  } catch (const flags::UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

bool full_repro() { return env_int("REPRO_FULL", 0, 0, 1) != 0; }

int horizon(int fast) {
  const int forced = env_int("REPRO_SLOTS", 0, 0);
  if (forced > 0) return forced;
  return full_repro() ? 100 : fast;
}

int bench_threads() {
  return env_int("GC_THREADS", 0, 0, flags::kMaxThreads);
}

sim::SweepRunner make_sweep_runner() {
  sim::SweepOptions opt;
  opt.threads = bench_threads();
  return sim::SweepRunner(opt);
}

std::vector<sim::Metrics> run_sweep(const std::vector<sim::SimJob>& jobs) {
  return make_sweep_runner().run(jobs);
}

void print_title(const std::string& title, const std::string& subtitle) {
  std::printf("\n== %s ==\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf("\n");
}

void print_row(const std::vector<std::string>& cells, int width) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

std::string num(double v) { return format_number(v); }

sim::Metrics run_controller(const sim::ScenarioConfig& cfg, double V,
                            int slots) {
  const auto model = cfg.build();
  core::LyapunovController controller(model, V, cfg.controller_options());
  return sim::run_simulation(model, controller, slots);
}

std::vector<std::string> timing_headers() {
  return {"s1_ms", "s2_ms", "s3_ms", "s4_ms", "step_ms"};
}

std::vector<double> timing_columns(const sim::Metrics& m) {
  const double per_slot = m.slots > 0 ? 1e3 / m.slots : 0.0;
  return {m.timing.s1_s * per_slot, m.timing.s2_s * per_slot,
          m.timing.s3_s * per_slot, m.timing.s4_s * per_slot,
          m.timing.step_s * per_slot};
}

CsvWriter timing_csv(const std::string& csv_path,
                     std::vector<std::string> keys) {
  GC_CHECK(csv_path.ends_with(".csv"));
  for (auto& h : timing_headers()) keys.push_back(h);
  return CsvWriter(
      csv_path.substr(0, csv_path.size() - 4) + ".timing.csv", keys);
}

std::vector<double> with_timing(std::vector<double> keys,
                                const sim::Metrics& m) {
  for (double v : timing_columns(m)) keys.push_back(v);
  return keys;
}

}  // namespace gc::bench
