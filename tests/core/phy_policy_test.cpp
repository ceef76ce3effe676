// Tests for the PHY-policy extension: the paper's min-power/fixed-rate
// design versus max-power/adaptive-rate.
#include <gtest/gtest.h>

#include <utility>

#include "core/controller.hpp"
#include "core/scheduler.hpp"
#include "core/validate.hpp"
#include "net/capacity.hpp"
#include "sim/scenario.hpp"

namespace gc::core {
namespace {

sim::ScenarioConfig adaptive_cfg() {
  auto cfg = sim::ScenarioConfig::tiny();
  cfg.phy_policy = ModelConfig::PhyPolicy::MaxPowerAdaptiveRate;
  return cfg;
}

SlotInputs fixed_inputs(const NetworkModel& model) {
  SlotInputs in;
  in.bandwidth_hz.assign(static_cast<std::size_t>(model.num_bands()), 1e6);
  in.renewable_j.assign(static_cast<std::size_t>(model.num_nodes()), 0.0);
  in.grid_connected.assign(static_cast<std::size_t>(model.num_nodes()), 1);
  return in;
}

TEST(PhyPolicy, AdaptiveTransmitsAtMaxPower) {
  const auto model = adaptive_cfg().build();
  NetworkState state(model, 1.0);
  state.set_g_queue(0, 2, 10.0);
  auto sched = sf_schedule(state, fixed_inputs(model));
  assign_powers(model, fixed_inputs(model), sched);
  ASSERT_FALSE(sched.empty());
  for (const auto& s : sched)
    EXPECT_DOUBLE_EQ(s.power_w, model.node(s.tx).energy.max_tx_power_w);
}

TEST(PhyPolicy, AdaptiveCapacityIsShannonOfRealizedSinr) {
  const auto model = adaptive_cfg().build();
  NetworkState state(model, 1.0);
  state.set_g_queue(0, 2, 10.0);
  const auto inputs = fixed_inputs(model);
  auto sched = sf_schedule(state, inputs);
  assign_powers(model, inputs, sched);
  ASSERT_EQ(sched.size(), 1u);
  const std::vector<net::Transmission> txs = {
      {sched[0].tx, sched[0].rx, sched[0].power_w}};
  const double sinr = net::sinr(model.topology(), txs, 0,
                                inputs.bandwidth_hz[sched[0].band],
                                model.radio());
  EXPECT_NEAR(sched[0].capacity_bps,
              inputs.bandwidth_hz[sched[0].band] * std::log2(1.0 + sinr),
              1e-6 * sched[0].capacity_bps);
  // With SINR above threshold, adaptive rate beats the fixed rate.
  EXPECT_GT(sched[0].capacity_bps,
            net::nominal_capacity_bps(inputs.bandwidth_hz[sched[0].band],
                                      model.radio().sinr_threshold));
}

TEST(PhyPolicy, AdaptiveDropsBelowThresholdLinks) {
  // Two co-band links whose mutual max-power interference sinks one of
  // them: the survivor set must all clear the threshold.
  const auto cfg = adaptive_cfg();
  const auto model = cfg.build();
  const auto inputs = fixed_inputs(model);
  std::vector<ScheduledLink> sched(2);
  sched[0] = {0, 2, 0, 0.0, 0.0, 0.0};
  sched[1] = {1, 3, 0, 0.0, 0.0, 0.0};
  assign_powers(model, inputs, sched);
  std::vector<net::Transmission> txs;
  for (const auto& s : sched) txs.push_back({s.tx, s.rx, s.power_w});
  for (std::size_t k = 0; k < txs.size(); ++k)
    EXPECT_GE(net::sinr(model.topology(), txs, k, 1e6, model.radio()),
              model.radio().sinr_threshold * (1.0 - 1e-9));
}

TEST(PhyPolicy, AdaptiveUsesMoreTransmitEnergyThanMinPower) {
  auto min_cfg = sim::ScenarioConfig::tiny();
  const auto min_model = min_cfg.build();
  const auto adp_model = adaptive_cfg().build();
  NetworkState smin(min_model, 1.0), sadp(adp_model, 1.0);
  smin.set_g_queue(0, 2, 10.0);
  sadp.set_g_queue(0, 2, 10.0);
  const auto inputs = fixed_inputs(min_model);
  auto a = sf_schedule(smin, inputs);
  auto b = sf_schedule(sadp, inputs);
  assign_powers(min_model, inputs, a);
  assign_powers(adp_model, inputs, b);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_LT(a[0].power_w, b[0].power_w);
  const auto da = compute_energy_demands(min_model, a);
  const auto db = compute_energy_demands(adp_model, b);
  EXPECT_LT(da[a[0].tx], db[b[0].tx]);
}

TEST(PhyPolicy, ControllerRunsCleanUnderValidation) {
  const auto cfg = adaptive_cfg();
  const auto model = cfg.build();
  LyapunovController c(model, 2.0, cfg.controller_options());
  Rng rng(23);
  for (int t = 0; t < 25; ++t) {
    const auto inputs = model.sample_inputs(t, rng);
    const NetworkState pre = c.state();
    const auto d = c.step(inputs);
    const auto v = validate_decision(pre, inputs, d);
    EXPECT_TRUE(v.empty()) << "slot " << t << ": " << v.front();
  }
}

TEST(PhyPolicy, AdaptiveSpendsMoreTransmitEnergyEndToEnd) {
  // The robust end-to-end property (the throughput direction is workload-
  // and density-dependent — see bench/ablation_phy_policy): transmitting
  // at P_max instead of the Foschini–Miljanic minimum strictly raises the
  // base stations' transmit-energy bill while both variants keep serving
  // traffic.
  auto run = [](bool adaptive) {
    auto cfg = sim::ScenarioConfig::tiny();
    cfg.session_rate_bps = 400e3;
    if (adaptive)
      cfg.phy_policy = ModelConfig::PhyPolicy::MaxPowerAdaptiveRate;
    const auto model = cfg.build();
    LyapunovController c(model, 2.0, cfg.controller_options());
    Rng rng(29);
    double tx_energy = 0.0, delivered = 0.0;
    for (int t = 0; t < 50; ++t) {
      const auto d = c.step(model.sample_inputs(t, rng));
      for (const auto& sl : d.schedule)
        tx_energy += sl.power_w * model.slot_seconds();
      for (const auto& r : d.routes)
        if (r.rx == model.session(r.session).destination)
          delivered += r.packets;
    }
    return std::make_pair(tx_energy, delivered);
  };
  const auto [fixed_energy, fixed_delivered] = run(false);
  const auto [adaptive_energy, adaptive_delivered] = run(true);
  EXPECT_GT(adaptive_energy, 2.0 * fixed_energy);
  EXPECT_GT(fixed_delivered, 0.0);
  EXPECT_GT(adaptive_delivered, 0.0);
}

}  // namespace
}  // namespace gc::core
