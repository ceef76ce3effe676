// S4 referee: the closed-form price solver (the controller's default S4,
// and the Theorem-5 lower bound's energy block) against the exact oracle,
// the joint energy LP, on seeded random small instances. Each instance
// draws V, battery levels, renewable and grid-connectivity realizations
// and a time-of-use tariff cycle. Two instance shapes:
//  * the controller's: on top of that, the overlays the controller feeds
//    S4 — fault outages (down nodes), price spikes (cost_multiplier),
//    sleeping nodes paying policy_demand_j and switching charges on awake
//    nodes — against the 128-segment LP;
//  * the lower bound's (core/lower_bound.cpp): baseline demand
//    (compute_energy_demands over an empty schedule) and no overlays,
//    against the LP at 16 and 128 segments, and at 2048 on every fifth
//    seed. That the price solver is
//    never above the LP at any resolution is what lets the lower bound use
//    it with no tangent-gap correction.
//
// Per instance the price solver must
//  * be no worse than the LP: objective <= LP objective + 1e-6 (1 + |obj|)
//    (the LP optimizes a tangent PWL of f, so its true-f objective can only
//    sit above the exact optimum), and leave no more energy unserved
//    (exactly none when the LP serves everything);
//  * honor charge-XOR-discharge (eq. (9)) exactly on every node;
//  * balance each node's demand, E = g + r + d + unserved;
//  * pass validate_decision on a decision built from its result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/energy_manager.hpp"
#include "core/validate.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace gc::core {
namespace {

enum class Shape { Controller, LowerBound };

// One random S4 instance. The state points at the model, so the instance
// is built in place and never moved.
struct Instance {
  Instance(sim::ScenarioConfig cfg, std::uint64_t seed,
           Shape shape = Shape::Controller)
      : rng(seed * 7919 + 11),
        model(with_tou(std::move(cfg), seed, rng).build()),
        state(model, rng.uniform(0.1, 20.0)) {
    const int n = model.num_nodes();
    const int slot = static_cast<int>(rng.uniform_int(0, 3));
    state.set_slot(slot);
    for (int i = 0; i < n; ++i)
      state.set_battery_j(
          i, rng.uniform(0.0, model.node(i).battery.capacity_j));

    inputs = model.sample_inputs(slot, rng);
    demands = compute_energy_demands(model, {});
    if (shape == Shape::LowerBound) return;
    if (rng.bernoulli(0.4)) inputs.cost_multiplier = rng.uniform(1.0, 5.0);
    inputs.node_down.assign(static_cast<std::size_t>(n), 0);
    inputs.node_asleep.assign(static_cast<std::size_t>(n), 0);
    inputs.policy_demand_j.assign(static_cast<std::size_t>(n), 0.0);
    for (int i = 0; i < n; ++i) {
      const double base = demands[i];
      inputs.node_down[i] = rng.bernoulli(0.1) ? 1 : 0;
      inputs.node_asleep[i] = rng.bernoulli(0.15) ? 1 : 0;
      // Sleep power for an asleep node; a switching charge (or extra
      // transmit energy) on top of the baseline for an awake one.
      if (rng.bernoulli(0.5))
        inputs.policy_demand_j[i] = rng.uniform(0.0, 2.0 * base);
      // The controller's demand overlay (controller.cpp, validate.cpp).
      if (inputs.node_is_down(i))
        demands[i] = 0.0;
      else if (inputs.node_is_asleep(i))
        demands[i] = inputs.policy_demand(i);
      else
        demands[i] += inputs.policy_demand(i);
    }
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // A four-slot time-of-use cycle; the slot drawn above picks the phase.
  static sim::ScenarioConfig with_tou(sim::ScenarioConfig cfg,
                                      std::uint64_t seed, Rng& rng) {
    cfg.seed = seed + 1;
    cfg.tariff_multipliers = {1.0, rng.uniform(1.0, 3.0),
                              rng.uniform(0.3, 1.0), rng.uniform(0.5, 2.0)};
    return cfg;
  }

  Rng rng;
  NetworkModel model;
  NetworkState state;
  SlotInputs inputs;
  std::vector<double> demands;
};

void referee(const Instance& in, const std::vector<int>& lp_segments = {128}) {
  const auto& model = in.model;
  const EnergyResult price =
      price_energy_manage(in.state, in.inputs, in.demands);

  double lp_unserved = 0.0;
  for (const int segments : lp_segments) {
    const EnergyResult lp = lp_energy_manage(
        in.state, in.inputs, in.demands,
        {.pwl_segments = segments, .decompose = S4Decompose::Never});
    lp_unserved = lp.unserved_total_j;
    EXPECT_LE(price.unserved_total_j, lp.unserved_total_j + 1e-9)
        << segments << " segments";
    // Demand the oracle covers is reported as exactly covered.
    if (lp.unserved_total_j == 0.0) {
      EXPECT_EQ(price.unserved_total_j, 0.0) << segments << " segments";
    }
    EXPECT_LE(price.objective,
              lp.objective + 1e-6 * (1.0 + std::abs(lp.objective)))
        << "price " << price.objective << " vs LP " << lp.objective << " at "
        << segments << " segments";
  }

  for (int i = 0; i < model.num_nodes(); ++i) {
    const auto& e = price.decisions[i];
    EXPECT_EQ(std::min(e.charge_total_j(), e.discharge_j), 0.0)
        << "(9) at node " << i;
    EXPECT_NEAR(e.serve_grid_j + e.serve_renewable_j + e.discharge_j +
                    e.unserved_j,
                in.demands[i], 1e-9 * (1.0 + in.demands[i]))
        << "demand balance at node " << i;
  }

  // An energy-only slot decision: nothing scheduled, admitted or routed,
  // so every session's demand is recorded as shortfall.
  SlotDecision d;
  d.energy = price.decisions;
  d.grid_total_j = price.grid_total_j;
  d.cost = price.cost;
  d.unserved_energy_j = price.unserved_total_j;
  d.admissions.resize(static_cast<std::size_t>(model.num_sessions()));
  for (int s = 0; s < model.num_sessions(); ++s)
    d.demand_shortfall.push_back(model.demand_packets(s, in.inputs));
  ValidateOptions vopt;
  // Off-grid nodes with empty batteries can be genuinely short; demand
  // full service exactly when the oracle achieves it.
  vopt.require_energy_served = lp_unserved <= 1e-9;
  const auto violations = validate_decision(in.state, in.inputs, d, vopt);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

class S4Referee : public ::testing::TestWithParam<int> {};

TEST_P(S4Referee, PriceSolverMatchesLpOracleOnTiny) {
  referee(Instance(sim::ScenarioConfig::tiny(),
                   static_cast<std::uint64_t>(GetParam())));
}

TEST_P(S4Referee, PriceSolverMatchesLpOracleOnPaper) {
  referee(Instance(sim::ScenarioConfig::paper(),
                   static_cast<std::uint64_t>(GetParam())));
}

// The lower-bound shape's segment sweep. A 2048-segment solve takes
// 1.2-1.9 s (the simplex walks the epigraph's breakpoints, so its pivots
// grow with the segment count, each over ~2k rows) against a few ms at 16
// and 128, so the finest resolution runs on every fifth seed: 10
// instances per config.
std::vector<int> lower_bound_sweep(int seed) {
  if (seed % 5 == 0) return {16, 128, 2048};
  return {16, 128};
}

TEST_P(S4Referee, PriceSolverNeverAboveLpOnLowerBoundShapeTiny) {
  referee(Instance(sim::ScenarioConfig::tiny(),
                   static_cast<std::uint64_t>(GetParam()), Shape::LowerBound),
          lower_bound_sweep(GetParam()));
}

TEST_P(S4Referee, PriceSolverNeverAboveLpOnLowerBoundShapePaper) {
  referee(Instance(sim::ScenarioConfig::paper(),
                   static_cast<std::uint64_t>(GetParam()), Shape::LowerBound),
          lower_bound_sweep(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, S4Referee, ::testing::Range(0, 50));

}  // namespace
}  // namespace gc::core
