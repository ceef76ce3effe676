// Exact-oracle test for assign_powers' per-band gain table. The oracle is
// the per-retry Topology path it replaced: every retry (and every SINR
// evaluation) reads each gain from the topology afresh. On seeded random
// co-band sets, crowded enough that links get descheduled, both PHY
// policies must return the same schedule, with == on every double.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/scheduler.hpp"
#include "net/capacity.hpp"
#include "net/power_control.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace gc::core {
namespace {

void oracle_max_adaptive(const NetworkModel& model, const SlotInputs& inputs,
                         int band, std::vector<std::size_t> on_band,
                         const std::vector<ScheduledLink>& schedule,
                         std::vector<ScheduledLink>& surviving) {
  const double w = inputs.bandwidth_hz[band];
  while (!on_band.empty()) {
    std::vector<net::Transmission> txs;
    for (std::size_t idx : on_band) {
      const auto& s = schedule[idx];
      txs.push_back(net::Transmission{
          s.tx, s.rx, model.node(s.tx).energy.max_tx_power_w});
    }
    double worst = 0.0;
    std::size_t worst_k = 0;
    std::vector<double> sinrs(on_band.size());
    for (std::size_t k = 0; k < on_band.size(); ++k) {
      sinrs[k] = net::sinr(model.topology(), txs, k, w, model.radio());
      if (k == 0 || sinrs[k] < worst) {
        worst = sinrs[k];
        worst_k = k;
      }
    }
    if (worst >= model.radio().sinr_threshold) {
      for (std::size_t k = 0; k < on_band.size(); ++k) {
        ScheduledLink s = schedule[on_band[k]];
        s.power_w = model.node(s.tx).energy.max_tx_power_w;
        s.capacity_bps = w * std::log2(1.0 + sinrs[k]);
        s.capacity_packets = std::floor(
            s.capacity_bps * model.slot_seconds() / model.packet_bits());
        surviving.push_back(s);
      }
      return;
    }
    on_band.erase(on_band.begin() + static_cast<long>(worst_k));
  }
}

std::vector<ScheduledLink> oracle_assign_powers(
    const NetworkModel& model, const SlotInputs& inputs,
    const std::vector<ScheduledLink>& schedule) {
  std::vector<ScheduledLink> surviving;
  for (int band = 0; band < model.num_bands(); ++band) {
    std::vector<std::size_t> on_band;
    for (std::size_t i = 0; i < schedule.size(); ++i)
      if (schedule[i].band == band) on_band.push_back(i);
    if (on_band.empty()) continue;
    if (model.config().phy_policy ==
        ModelConfig::PhyPolicy::MaxPowerAdaptiveRate) {
      oracle_max_adaptive(model, inputs, band, on_band, schedule, surviving);
      continue;
    }
    while (!on_band.empty()) {
      std::vector<net::CoBandLink> links;
      for (std::size_t idx : on_band) {
        const auto& s = schedule[idx];
        links.push_back(net::CoBandLink{
            s.tx, s.rx, model.node(s.tx).energy.max_tx_power_w});
      }
      const auto pc = net::solve_min_powers(
          model.topology(), links, inputs.bandwidth_hz[band], model.radio());
      if (pc.feasible) {
        for (std::size_t k = 0; k < on_band.size(); ++k) {
          ScheduledLink s = schedule[on_band[k]];
          s.power_w = pc.powers_w[k];
          s.capacity_bps = net::nominal_capacity_bps(
              inputs.bandwidth_hz[band], model.radio().sinr_threshold);
          s.capacity_packets = std::floor(
              s.capacity_bps * model.slot_seconds() / model.packet_bits());
          surviving.push_back(s);
        }
        break;
      }
      on_band.erase(on_band.begin() + pc.violating_link);
    }
  }
  return surviving;
}

TEST(PowerControl, BandTableMatchesTopologyPath) {
  for (const auto policy : {ModelConfig::PhyPolicy::MinPowerFixedRate,
                            ModelConfig::PhyPolicy::MaxPowerAdaptiveRate}) {
    auto cfg = sim::ScenarioConfig::paper();
    cfg.num_users = 30;
    cfg.area_m = 900.0;  // crowded: co-band interference forces deschedules
    cfg.phy_policy = policy;
    const NetworkModel model = cfg.build();
    const int n = model.num_nodes();
    const int bands = model.num_bands();
    Rng rng(policy == ModelConfig::PhyPolicy::MinPowerFixedRate ? 41 : 42);
    std::size_t descheduled = 0, kept = 0;
    for (int trial = 0; trial < 80; ++trial) {
      SCOPED_TRACE(testing::Message() << "trial " << trial);
      SlotInputs inputs;
      inputs.bandwidth_hz.assign(static_cast<std::size_t>(bands), 0.0);
      for (int m = 0; m < bands; ++m)
        inputs.bandwidth_hz[m] = rng.uniform(0.8e6, 2.2e6);
      // Random co-band sets: each node at most once per band, as the
      // schedulers' radio bookkeeping guarantees.
      std::vector<char> busy(static_cast<std::size_t>(n) * bands, 0);
      std::vector<ScheduledLink> schedule;
      const int attempts = static_cast<int>(rng.uniform_int(1, 40));
      for (int a = 0; a < attempts; ++a) {
        const int tx = static_cast<int>(rng.uniform_int(0, n - 1));
        const int rx = static_cast<int>(rng.uniform_int(0, n - 1));
        const int m = static_cast<int>(rng.uniform_int(0, bands - 1));
        if (tx == rx || busy[static_cast<std::size_t>(tx) * bands + m] ||
            busy[static_cast<std::size_t>(rx) * bands + m] ||
            !model.spectrum().link_band_ok(tx, rx, m))
          continue;
        busy[static_cast<std::size_t>(tx) * bands + m] = 1;
        busy[static_cast<std::size_t>(rx) * bands + m] = 1;
        ScheduledLink s;
        s.tx = tx;
        s.rx = rx;
        s.band = m;
        schedule.push_back(s);
      }
      const auto expect = oracle_assign_powers(model, inputs, schedule);
      auto got = schedule;
      assign_powers(model, inputs, got);
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].tx, expect[k].tx) << k;
        EXPECT_EQ(got[k].rx, expect[k].rx) << k;
        EXPECT_EQ(got[k].band, expect[k].band) << k;
        EXPECT_EQ(got[k].power_w, expect[k].power_w) << k;
        EXPECT_EQ(got[k].capacity_bps, expect[k].capacity_bps) << k;
        EXPECT_EQ(got[k].capacity_packets, expect[k].capacity_packets) << k;
      }
      descheduled += schedule.size() - got.size();
      kept += got.size();
    }
    // The instances must exercise both outcomes.
    EXPECT_GT(descheduled, 0u);
    EXPECT_GT(kept, 0u);
  }
}

}  // namespace
}  // namespace gc::core
