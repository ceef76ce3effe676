// Ablation: the two S4 solvers — the exact-up-to-PWL LP (what the paper's
// CPLEX computes) against the closed-form price decomposition — on random
// instances: objective gap distribution and speed.
#include "common.hpp"

#include <chrono>
#include <cmath>

#include "core/energy_manager.hpp"

using namespace gc;
using namespace gc::bench;
using Clock = std::chrono::steady_clock;

int main() {
  const int instances =
      env_int("REPRO_INSTANCES", full_repro() ? 500 : 150, 1);
  const auto cfg = sim::ScenarioConfig::paper();
  const auto model = cfg.build();

  print_title("Ablation — S4 energy managers (LP vs price decomposition)",
              std::to_string(instances) + " random instances on the paper "
              "scenario");

  RunningStat rel_gap;
  double lp_ms = 0.0, price_ms = 0.0;
  for (int k = 0; k < instances; ++k) {
    Rng rng(static_cast<std::uint64_t>(k) * 6151 + 29);
    core::NetworkState state(model, rng.uniform(0.5, 10.0));
    core::SlotInputs inputs;
    inputs.bandwidth_hz.assign(
        static_cast<std::size_t>(model.num_bands()), 1e6);
    inputs.renewable_j.resize(static_cast<std::size_t>(model.num_nodes()));
    inputs.grid_connected.resize(static_cast<std::size_t>(model.num_nodes()));
    std::vector<double> demands(static_cast<std::size_t>(model.num_nodes()));
    for (int i = 0; i < model.num_nodes(); ++i) {
      state.set_battery_j(
          i, rng.uniform(0.0, model.node(i).battery.capacity_j));
      inputs.renewable_j[i] =
          rng.uniform(0.0, model.node(i).renewable->max_j());
      inputs.grid_connected[i] =
          model.topology().is_base_station(i) || rng.bernoulli(0.3) ? 1 : 0;
      demands[i] = rng.uniform(
          0.0, 1.2 * energy::baseline_energy_j(model.node(i).energy,
                                               model.slot_seconds()));
    }

    auto t0 = Clock::now();
    const auto lp = core::lp_energy_manage(
        state, inputs, demands,
        {.pwl_segments = 128, .decompose = core::S4Decompose::Never});
    lp_ms += std::chrono::duration<double, std::milli>(Clock::now() - t0)
                 .count();
    t0 = Clock::now();
    const auto price = core::price_energy_manage(state, inputs, demands);
    price_ms += std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();

    const double scale =
        1.0 + std::max(std::abs(lp.objective), std::abs(price.objective));
    rel_gap.add((price.objective - lp.objective) / scale);
  }

  print_row({"solver", "ms/solve", "rel_gap_mean", "rel_gap_max"});
  print_row({"lp (128 segs)", num(lp_ms / instances), "0", "0"});
  print_row({"price", num(price_ms / instances), num(rel_gap.mean()),
             num(rel_gap.max())});
  std::printf("\nspeedup: %.1fx\n", lp_ms / std::max(price_ms, 1e-9));
  return 0;
}
