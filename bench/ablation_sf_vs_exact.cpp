// Ablation: the paper's sequential-fix (SF) scheduling heuristic against
// the exact (exhaustive) optimum and the plain greedy baseline, on random
// small instances where the exact solver is tractable.
//
// Reports the Psi1-weight ratio achieved by SF and greedy relative to the
// optimum, and solve times.
#include "common.hpp"

#include <chrono>

#include "core/scheduler.hpp"

using namespace gc;
using namespace gc::bench;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  const int instances =
      env_int("REPRO_INSTANCES", full_repro() ? 200 : 60, 1);

  print_title("Ablation — SF scheduling vs exact vs greedy",
              std::to_string(instances) + " random small instances");

  RunningStat sf_ratio, greedy_ratio;
  double sf_ms = 0.0, exact_ms = 0.0, greedy_ms = 0.0;
  int sf_optimal = 0;

  for (int k = 0; k < instances; ++k) {
    auto cfg = sim::ScenarioConfig::tiny();
    cfg.num_users = 4;
    cfg.spectrum.num_random_bands = 1;
    cfg.seed = static_cast<std::uint64_t>(k) + 500;
    const auto model = cfg.build();
    core::NetworkState state(model, 1.0);
    Rng rng(static_cast<std::uint64_t>(k) * 977 + 3);
    int loaded = 0;
    for (int i = 0; i < model.num_nodes() && loaded < 6; ++i)
      for (int j = 0; j < model.num_nodes() && loaded < 6; ++j) {
        if (i == j) continue;
        if (rng.bernoulli(0.3)) {
          state.set_g_queue(i, j, rng.uniform(1.0, 100.0));
          ++loaded;
        }
      }
    Rng irng(static_cast<std::uint64_t>(k));
    const auto inputs = model.sample_inputs(0, irng);

    auto t0 = Clock::now();
    const auto sf = core::sf_schedule(state, inputs);
    sf_ms += ms_since(t0);
    t0 = Clock::now();
    const auto exact = core::exhaustive_schedule(state, inputs);
    exact_ms += ms_since(t0);
    t0 = Clock::now();
    const auto greedy = core::greedy_schedule(state, inputs);
    greedy_ms += ms_since(t0);

    const double w_exact = core::schedule_weight(state, exact, inputs);
    if (w_exact <= 0.0) continue;
    const double r_sf = core::schedule_weight(state, sf, inputs) / w_exact;
    const double r_gr =
        core::schedule_weight(state, greedy, inputs) / w_exact;
    sf_ratio.add(r_sf);
    greedy_ratio.add(r_gr);
    if (r_sf > 1.0 - 1e-9) ++sf_optimal;
  }

  print_row({"scheduler", "mean_ratio", "min_ratio", "optimal%", "ms/solve"});
  print_row({"sequential-fix", num(sf_ratio.mean()), num(sf_ratio.min()),
             num(100.0 * sf_optimal / std::max<std::int64_t>(sf_ratio.count(), 1)),
             num(sf_ms / instances)});
  print_row({"greedy", num(greedy_ratio.mean()), num(greedy_ratio.min()), "-",
             num(greedy_ms / instances)});
  print_row({"exact (B&B)", "1", "1", "100", num(exact_ms / instances)});
  return 0;
}
