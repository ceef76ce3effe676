// Exactness of the scaling levers (docs/PERFORMANCE.md "Scaling past 500
// nodes", docs/ALGORITHM.md "Why range pruning is exact" / "Why the S4
// split is exact"):
//  * range pruning removes only pairs that are infeasible at maximum
//    transmit power under EVERY bandwidth realization, and the pruned
//    candidate scan is the dense scan with those pairs deleted in place;
//  * the forced S4 base-station/user decomposition reproduces the joint
//    LP's optimum, and Auto keeps the historical joint path bit for bit
//    below its node threshold.
// The trajectory-level guarantees (LP-S4 reproducibility and resume)
// live in tests/sim/perf_levers_test.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/energy_manager.hpp"
#include "core/scheduler.hpp"
#include "net/link_prune.hpp"
#include "sim/scenario.hpp"

namespace gc::core {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The paper layout stretched over an 8 km square: far user pairs genuinely
// cannot close a link at maximum power, so the prune map is non-trivial.
sim::ScenarioConfig spread_config() {
  auto cfg = sim::ScenarioConfig::paper();
  cfg.area_m = 8000.0;
  cfg.num_users = 30;
  return cfg;
}

// Bandwidths pinned at their realization floors (band 0 fixed cellular,
// random bands at lo). MinPowerFixedRate needs Gamma * N0 * W of received
// power, increasing in W, so the floor is the EASIEST case for any link:
// infeasibility here implies infeasibility at every realization — exactly
// the prune predicate (net/link_prune.cpp).
SlotInputs floor_inputs(const NetworkModel& model) {
  const auto& sc = model.spectrum().config();
  SlotInputs in;
  in.bandwidth_hz.assign(static_cast<std::size_t>(model.num_bands()),
                         sc.random_bandwidth_lo_hz);
  in.bandwidth_hz[0] = sc.cellular_bandwidth_hz;
  in.renewable_j.assign(static_cast<std::size_t>(model.num_nodes()), 0.0);
  in.grid_connected.assign(static_cast<std::size_t>(model.num_nodes()), 1);
  return in;
}

TEST(LinkPrune, MapPartitionsAllOrderedPairs) {
  auto cfg = spread_config();
  cfg.link_prune = true;
  const auto model = cfg.build();
  const net::LinkPruneMap* map = model.pruned_links();
  ASSERT_NE(map, nullptr);

  const int n = model.num_nodes();
  EXPECT_EQ(map->total_links(),
            static_cast<std::int64_t>(n) * (n - 1));
  EXPECT_EQ(map->kept_links() + map->pruned_links(), map->total_links());
  EXPECT_GT(map->pruned_links(), 0);  // the geometry must actually prune
  EXPECT_GT(map->kept_links(), 0);

  // The adjacency lists agree with in_range and are ascending — the pruned
  // candidate scan must visit survivors in dense-scan order.
  std::int64_t listed = 0;
  for (int i = 0; i < n; ++i) {
    int prev = -1;
    for (int j : map->out_neighbors(i)) {
      EXPECT_TRUE(map->in_range(i, j)) << i << "->" << j;
      EXPECT_GT(j, prev) << "out_neighbors(" << i << ") not ascending";
      prev = j;
      ++listed;
    }
  }
  EXPECT_EQ(listed, map->kept_links());
}

TEST(LinkPrune, PrunedPairsAreInfeasibleAtMaxPower) {
  auto pruned_cfg = spread_config();
  pruned_cfg.link_prune = true;
  const auto pruned_model = pruned_cfg.build();
  const net::LinkPruneMap* map = pruned_model.pruned_links();
  ASSERT_NE(map, nullptr);
  ASSERT_GT(map->pruned_links(), 0);

  // Same seed with pruning off: identical geometry, dense link set.
  const auto model = spread_config().build();
  ASSERT_EQ(model.num_nodes(), pruned_model.num_nodes());
  const SlotInputs inputs = floor_inputs(model);

  // Every pruned pair, alone on the air (no interference — the easiest
  // possible slot), must be descheduled by power control on every band it
  // could use.
  int checked = 0;
  for (int tx = 0; tx < model.num_nodes(); ++tx) {
    for (int rx = 0; rx < model.num_nodes(); ++rx) {
      if (rx == tx || map->in_range(tx, rx)) continue;
      if (!model.link_allowed(tx, rx)) continue;
      for (int m = 0; m < model.num_bands(); ++m) {
        if (!model.spectrum().link_band_ok(tx, rx, m)) continue;
        std::vector<ScheduledLink> sched(1);
        sched[0].tx = tx;
        sched[0].rx = rx;
        sched[0].band = m;
        assign_powers(model, inputs, sched);
        EXPECT_TRUE(sched.empty())
            << "pruned pair " << tx << "->" << rx << " band " << m
            << " closed a link at max power";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(LinkPrune, PrunedScanIsTheDenseScanMinusDeadPairs) {
  const auto dense_model = spread_config().build();
  auto pruned_cfg = spread_config();
  pruned_cfg.link_prune = true;
  const auto pruned_model = pruned_cfg.build();
  const net::LinkPruneMap* map = pruned_model.pruned_links();
  ASSERT_NE(map, nullptr);

  NetworkState dense_state(dense_model, 1.0);
  NetworkState pruned_state(pruned_model, 1.0);
  for (int i = 0; i < dense_model.num_nodes(); ++i)
    for (int j = 0; j < dense_model.num_nodes(); ++j)
      if (i != j) {
        const double h = 1.0 + ((i * 13 + j * 7) % 11);
        dense_state.set_g_queue(i, j, h);
        pruned_state.set_g_queue(i, j, h);
      }

  const SlotInputs inputs = floor_inputs(dense_model);
  const auto dense = build_candidates(dense_state, inputs);
  const auto pruned = build_candidates(pruned_state, inputs);

  std::vector<CandidateLinkBand> expect;
  for (const auto& c : dense)
    if (map->in_range(c.tx, c.rx)) expect.push_back(c);
  ASSERT_LT(expect.size(), dense.size());  // some scans really dropped
  ASSERT_EQ(pruned.size(), expect.size());
  for (std::size_t k = 0; k < pruned.size(); ++k) {
    EXPECT_EQ(pruned[k].tx, expect[k].tx) << "at " << k;
    EXPECT_EQ(pruned[k].rx, expect[k].rx) << "at " << k;
    EXPECT_EQ(pruned[k].band, expect[k].band) << "at " << k;
    EXPECT_EQ(bits(pruned[k].capacity_bps), bits(expect[k].capacity_bps));
    EXPECT_EQ(bits(pruned[k].weight), bits(expect[k].weight));
  }
}

// --- S4 decomposition -----------------------------------------------------

SlotInputs energy_inputs(const NetworkModel& model) {
  SlotInputs in;
  in.bandwidth_hz.assign(static_cast<std::size_t>(model.num_bands()), 1e6);
  in.renewable_j.assign(static_cast<std::size_t>(model.num_nodes()), 0.0);
  in.grid_connected.assign(static_cast<std::size_t>(model.num_nodes()), 0);
  for (int i = 0; i < model.num_nodes(); ++i) {
    in.renewable_j[i] = 0.5 * model.node(i).renewable->max_j();
    // BS on-grid always; every other user connected, so the split faces
    // both user regimes (grid-backed and battery-only).
    in.grid_connected[i] =
        model.topology().is_base_station(i) || i % 2 == 0 ? 1 : 0;
  }
  return in;
}

std::vector<double> demands_with_traffic(const NetworkModel& model) {
  std::vector<ScheduledLink> sched(1);
  sched[0].tx = 0;
  sched[0].rx = 3;
  sched[0].band = 0;
  sched[0].power_w = 2.0;
  return compute_energy_demands(model, sched);
}

TEST(S4Decompose, ForcedSplitMatchesJointOptimum) {
  const auto model = sim::ScenarioConfig::tiny().build();
  NetworkState state(model, 3.0);
  const SlotInputs inputs = energy_inputs(model);
  const auto demands = demands_with_traffic(model);

  EnergyLpOptions joint;
  joint.decompose = S4Decompose::Never;
  EnergyLpOptions split;
  split.decompose = S4Decompose::Force;
  const EnergyResult a = lp_energy_manage(state, inputs, demands, joint);
  const EnergyResult b = lp_energy_manage(state, inputs, demands, split);

  // The user variables never touch the grid price, so the split changes
  // nothing the joint LP could not also have chosen: the optimum (and
  // therefore the drift-plus-penalty value Psi4) must agree to solver
  // tolerance; only tie-breaking between equal-value vertices may differ.
  const double tol = 1e-6 * (1.0 + std::abs(a.objective));
  EXPECT_NEAR(b.objective, a.objective, tol);
  EXPECT_NEAR(b.grid_total_j, a.grid_total_j,
              1e-6 * (1.0 + a.grid_total_j));
  EXPECT_NEAR(b.cost, a.cost, 1e-6 * (1.0 + a.cost));
  EXPECT_DOUBLE_EQ(a.unserved_total_j, 0.0);
  EXPECT_DOUBLE_EQ(b.unserved_total_j, 0.0);
  EXPECT_NEAR(psi4(state, b.decisions), psi4(state, a.decisions), tol);

  // Both serve every node's full demand (eq. (3) with curtailment slack).
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < b.decisions.size(); ++i) {
    const NodeEnergyDecision& d = b.decisions[i];
    EXPECT_NEAR(d.serve_renewable_j + d.serve_grid_j + d.discharge_j,
                d.demand_j, 1e-6 * (1.0 + d.demand_j))
        << "node " << i;
  }
}

TEST(S4Decompose, AutoKeepsJointPathBitForBitBelowThreshold) {
  const auto model = sim::ScenarioConfig::tiny().build();
  NetworkState state(model, 3.0);
  const SlotInputs inputs = energy_inputs(model);
  const auto demands = demands_with_traffic(model);

  EnergyLpOptions joint;
  joint.decompose = S4Decompose::Never;
  EnergyLpOptions aut;  // tiny is far below decompose_min_nodes = 64
  aut.decompose = S4Decompose::Auto;
  const EnergyResult a = lp_energy_manage(state, inputs, demands, joint);
  const EnergyResult b = lp_energy_manage(state, inputs, demands, aut);

  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  EXPECT_EQ(bits(a.objective), bits(b.objective));
  EXPECT_EQ(bits(a.grid_total_j), bits(b.grid_total_j));
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(bits(a.decisions[i].serve_renewable_j),
              bits(b.decisions[i].serve_renewable_j));
    EXPECT_EQ(bits(a.decisions[i].serve_grid_j),
              bits(b.decisions[i].serve_grid_j));
    EXPECT_EQ(bits(a.decisions[i].discharge_j),
              bits(b.decisions[i].discharge_j));
    EXPECT_EQ(bits(a.decisions[i].charge_renewable_j),
              bits(b.decisions[i].charge_renewable_j));
    EXPECT_EQ(bits(a.decisions[i].charge_grid_j),
              bits(b.decisions[i].charge_grid_j));
    EXPECT_EQ(bits(a.decisions[i].curtailed_j),
              bits(b.decisions[i].curtailed_j));
    EXPECT_EQ(bits(a.decisions[i].unserved_j),
              bits(b.decisions[i].unserved_j));
  }
}

}  // namespace
}  // namespace gc::core
