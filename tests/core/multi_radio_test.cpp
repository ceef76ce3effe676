// Tests for the multi-radio extension: constraint (22) generalized to R
// simultaneous activities per node, with the per-band rules (20)/(21)
// enforced explicitly.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/controller.hpp"
#include "core/scheduler.hpp"
#include "core/validate.hpp"
#include "sim/scenario.hpp"

namespace gc::core {
namespace {

sim::ScenarioConfig radios_cfg(int bs, int user) {
  auto cfg = sim::ScenarioConfig::tiny();
  cfg.bs_radios = bs;
  cfg.user_radios = user;
  return cfg;
}

SlotInputs fixed_inputs(const NetworkModel& model) {
  SlotInputs in;
  in.bandwidth_hz.assign(static_cast<std::size_t>(model.num_bands()), 1.2e6);
  in.bandwidth_hz[0] = 1e6;
  in.renewable_j.assign(static_cast<std::size_t>(model.num_nodes()), 0.0);
  in.grid_connected.assign(static_cast<std::size_t>(model.num_nodes()), 1);
  return in;
}

TEST(MultiRadio, DefaultIsSingleRadio) {
  const auto model = sim::ScenarioConfig::tiny().build();
  for (int i = 0; i < model.num_nodes(); ++i)
    EXPECT_EQ(model.num_radios(i), 1);
}

TEST(MultiRadio, RejectsZeroRadios) {
  auto cfg = radios_cfg(0, 1);
  EXPECT_THROW(cfg.build(), CheckError);
}

TEST(MultiRadio, BetaAndBScaleWithRadios) {
  const auto one = radios_cfg(1, 1).build();
  const auto three = radios_cfg(3, 3).build();
  EXPECT_GT(three.beta(), one.beta());
  EXPECT_GT(three.drift_constant_B(), one.drift_constant_B());
}

TEST(MultiRadio, AllRadiosLinkBoundCapsAtCommonBands) {
  auto cfg = radios_cfg(8, 8);  // more radios than bands
  const auto model = cfg.build();
  // Between the two BSs all 3 tiny-config bands are common: the parallel
  // factor saturates at the band count, not the radio count.
  EXPECT_DOUBLE_EQ(model.max_link_packets_all_radios(0, 1),
                   3.0 * model.max_link_packets(0, 1));
}

TEST(MultiRadio, SchedulerUsesExtraRadios) {
  const auto model = radios_cfg(2, 1).build();
  NetworkState state(model, 1.0);
  // Base station 0 has traffic for two different users.
  state.set_g_queue(0, 2, 50.0);
  state.set_g_queue(0, 3, 50.0);
  const auto inputs = fixed_inputs(model);
  const auto sched = sf_schedule(state, inputs);
  int bs0_links = 0;
  std::set<int> bands;
  for (const auto& s : sched)
    if (s.tx == 0) {
      ++bs0_links;
      EXPECT_TRUE(bands.insert(s.band).second)
          << "same band reused at node 0";
    }
  EXPECT_EQ(bs0_links, 2);  // both links scheduled, distinct bands
}

TEST(MultiRadio, SingleRadioStillSchedulesOne) {
  const auto model = radios_cfg(1, 1).build();
  NetworkState state(model, 1.0);
  state.set_g_queue(0, 2, 50.0);
  state.set_g_queue(0, 3, 50.0);
  const auto sched = sf_schedule(state, fixed_inputs(model));
  int bs0_links = 0;
  for (const auto& s : sched)
    if (s.tx == 0) ++bs0_links;
  EXPECT_EQ(bs0_links, 1);
}

TEST(MultiRadio, PerBandExclusivityHolds) {
  const auto model = radios_cfg(3, 2).build();
  NetworkState state(model, 1.0);
  Rng rng(5);
  for (int i = 0; i < model.num_nodes(); ++i)
    for (int j = 0; j < model.num_nodes(); ++j)
      if (i != j) state.set_g_queue(i, j, rng.uniform(1.0, 100.0));
  const auto sched = sf_schedule(state, fixed_inputs(model));
  std::map<std::pair<int, int>, int> node_band;
  std::map<int, int> node_count;
  for (const auto& s : sched) {
    for (int node : {s.tx, s.rx}) {
      EXPECT_LE((++node_band[{node, s.band}]), 1)
          << "node " << node << " band " << s.band;
      ++node_count[node];
    }
  }
  for (const auto& [node, count] : node_count)
    EXPECT_LE(count, model.num_radios(node));
}

TEST(MultiRadio, ControllerRunsCleanUnderValidation) {
  auto cfg = radios_cfg(3, 2);
  const auto model = cfg.build();
  LyapunovController c(model, 2.0, cfg.controller_options());
  Rng rng(9);
  for (int t = 0; t < 25; ++t) {
    const auto inputs = model.sample_inputs(t, rng);
    const NetworkState pre = c.state();
    const auto d = c.step(inputs);
    const auto v = validate_decision(pre, inputs, d);
    EXPECT_TRUE(v.empty()) << "slot " << t << ": " << v.front();
  }
}

TEST(MultiRadio, MoreRadiosDeliverAtLeastAsMuch) {
  double delivered[2] = {0.0, 0.0};
  for (int k = 0; k < 2; ++k) {
    auto cfg = radios_cfg(k == 0 ? 1 : 3, k == 0 ? 1 : 2);
    // Saturate demand so extra capacity matters.
    cfg.session_rate_bps = 400e3;
    const auto model = cfg.build();
    LyapunovController c(model, 2.0, cfg.controller_options());
    Rng rng(11);
    for (int t = 0; t < 60; ++t) {
      const auto d = c.step(model.sample_inputs(t, rng));
      for (const auto& r : d.routes)
        if (r.rx == model.session(r.session).destination)
          delivered[k] += r.packets;
    }
  }
  EXPECT_GE(delivered[1], delivered[0]);
  EXPECT_GT(delivered[1], 0.0);
}

TEST(MultiRadio, RoutingAggregatesMultiBandCapacity) {
  const auto model = radios_cfg(2, 2).build();
  NetworkState state(model, 1.0);
  state.set_q(0, 0, 1000.0);
  std::vector<AdmissionDecision> adm(
      static_cast<std::size_t>(model.num_sessions()));
  adm[0].source_bs = 1;
  adm[1].source_bs = 1;
  // Same (tx, rx) scheduled on two bands: capacity must pool.
  std::vector<ScheduledLink> sched(2);
  sched[0].tx = 0;
  sched[0].rx = 2;
  sched[0].band = 0;
  sched[0].capacity_packets = 7.0;
  sched[1].tx = 0;
  sched[1].rx = 2;
  sched[1].band = 1;
  sched[1].capacity_packets = 5.0;
  const auto r = greedy_route(state, sched, adm);
  double moved = 0.0;
  for (const auto& rt : r.routes)
    if (rt.tx == 0 && rt.rx == 2) moved += rt.packets;
  EXPECT_DOUBLE_EQ(moved, 12.0);
}

}  // namespace
}  // namespace gc::core
