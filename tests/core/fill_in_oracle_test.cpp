// Exact-oracle test for the Psi3 fill-in scan. build_fill_in_candidates
// visits only the sessions a transmitter holds packets for; the oracle
// below is the all-sessions scan it replaced, kept here as the reference.
// On seeded random small instances the two must return the same candidate
// list, element for element, with == on the doubles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/scheduler.hpp"
#include "net/capacity.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace gc::core {
namespace {

// Radio budget of a partial schedule: activities per node and per
// (node, band), as constraint (22) and (20)/(21) count them.
struct Usage {
  const NetworkModel& model;
  std::vector<int> used;
  std::vector<char> band_used;

  Usage(const NetworkModel& m, const std::vector<ScheduledLink>& schedule)
      : model(m),
        used(static_cast<std::size_t>(m.num_nodes()), 0),
        band_used(static_cast<std::size_t>(m.num_nodes()) * m.num_bands(),
                  0) {
    for (const auto& s : schedule) take(s.tx, s.rx, s.band);
  }
  char& band(int node, int m) {
    return band_used[static_cast<std::size_t>(node) * model.num_bands() + m];
  }
  bool saturated(int node) const {
    return used[node] >= model.num_radios(node);
  }
  bool can_take(int tx, int rx, int m) {
    return !saturated(tx) && !saturated(rx) && !band(tx, m) && !band(rx, m);
  }
  void take(int tx, int rx, int m) {
    ++used[tx];
    ++used[rx];
    band(tx, m) = band(rx, m) = 1;
  }
};

double penalty(const NetworkModel& model, int tx, int rx, double bw,
               double price) {
  if (price <= 0.0) return 0.0;
  double energy_j = 0.0;
  if (model.topology().is_base_station(tx))
    energy_j += model.radio().sinr_threshold *
                model.radio().noise_psd_w_per_hz * bw /
                model.topology().gain(tx, rx) * model.slot_seconds();
  if (model.topology().is_base_station(rx))
    energy_j += model.node(rx).energy.recv_power_w * model.slot_seconds();
  return price * energy_j;
}

// The all-sessions scan: every session on every in-range pair.
std::vector<CandidateLinkBand> all_sessions_scan(
    const NetworkState& state, const SlotInputs& inputs,
    const std::vector<ScheduledLink>& already_scheduled, double price) {
  const auto& model = state.model();
  const int n = model.num_nodes();
  Usage usage(model, already_scheduled);
  const net::LinkPruneMap* prune = model.pruned_links();
  std::vector<CandidateLinkBand> out;
  for (int i = 0; i < n; ++i) {
    if (usage.saturated(i) || inputs.node_is_inactive(i)) continue;
    const auto scan_rx = [&](int j) {
      if (usage.saturated(j) || !model.link_allowed(i, j)) return;
      if (inputs.node_is_inactive(j) || inputs.link_is_faded(i, j, n)) return;
      double best_diff = 0.0;
      bool delivery_link = false;
      for (int s = 0; s < model.num_sessions(); ++s) {
        if (i == model.session(s).destination) continue;
        if (j == model.session(s).destination) delivery_link = true;
        best_diff = std::max(best_diff, state.q(i, s) - state.q(j, s) -
                                            model.beta() * state.h(i, j));
      }
      if (best_diff <= 0.0) return;
      for (int m = 0; m < model.num_bands(); ++m) {
        if (!model.spectrum().link_band_ok(i, j, m)) continue;
        if (!usage.can_take(i, j, m)) continue;
        const double c = net::nominal_capacity_bps(
            inputs.bandwidth_hz[m], model.radio().sinr_threshold);
        const double pkts = c * model.slot_seconds() / model.packet_bits();
        if (pkts < 1.0) continue;
        const double p =
            delivery_link
                ? 0.0
                : penalty(model, i, j, inputs.bandwidth_hz[m], price);
        const double weight = best_diff * std::floor(pkts) - p;
        if (weight <= 0.0) continue;
        out.push_back(CandidateLinkBand{i, j, m, c, weight});
      }
    };
    if (prune != nullptr) {
      for (int j : prune->out_neighbors(i)) scan_rx(j);
    } else {
      for (int j = 0; j < n; ++j)
        if (j != i) scan_rx(j);
    }
  }
  return out;
}

TEST(Scheduler, FillInMatchesAllSessionsScan) {
  int instances_with_candidates = 0, pruned = 0, priced_out = 0,
      exempt_deliveries = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    Rng rng(9000 + k);
    sim::ScenarioConfig cfg = sim::ScenarioConfig::tiny();
    cfg.seed = 100 + k;
    cfg.num_users = 3 + static_cast<int>(k % 6);
    cfg.num_sessions = 1 + static_cast<int>(k % 4);
    cfg.area_m = k % 3 == 0 ? 2000.0 : 800.0;
    cfg.bs_radios = 1 + static_cast<int>(k % 2);
    cfg.link_prune = k % 2 == 1;
    pruned += cfg.link_prune;
    const NetworkModel model = cfg.build();
    const int n = model.num_nodes();

    // Queues: half of the (node, session) backlogs zero, the rest
    // positive; destinations included, since the scan must skip them.
    NetworkState state(model, 2.0);
    for (int i = 0; i < n; ++i)
      for (int s = 0; s < model.num_sessions(); ++s)
        if (rng.uniform(0.0, 1.0) < 0.5)
          state.set_q(i, s, std::floor(rng.uniform(1.0, 200.0)));
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        if (i != j && rng.uniform(0.0, 1.0) < 0.3)
          state.set_g_queue(i, j, std::floor(rng.uniform(1.0, 40.0)));

    SlotInputs in;
    for (int m = 0; m < model.num_bands(); ++m)
      in.bandwidth_hz.push_back(rng.uniform(0.5e6, 2e6));
    in.renewable_j.assign(static_cast<std::size_t>(n), 0.0);
    in.grid_connected.assign(static_cast<std::size_t>(n), 1);
    if (k % 4 != 0) {
      in.node_down.assign(static_cast<std::size_t>(n), 0);
      in.node_asleep.assign(static_cast<std::size_t>(n), 0);
      in.link_faded.assign(static_cast<std::size_t>(n) * n, 0);
      for (int i = 0; i < n; ++i) {
        in.node_down[i] = rng.uniform(0.0, 1.0) < 0.1;
        in.node_asleep[i] = rng.uniform(0.0, 1.0) < 0.1;
      }
      for (char& f : in.link_faded) f = rng.uniform(0.0, 1.0) < 0.15;
    }

    // A partial schedule: a few links taken greedily in random order.
    std::vector<ScheduledLink> pre;
    {
      Usage usage(model, {});
      const int tries = static_cast<int>(k % 5);
      for (int t = 0; t < tries; ++t) {
        const int tx = static_cast<int>(rng.uniform(0.0, n - 1e-9));
        const int rx = static_cast<int>(rng.uniform(0.0, n - 1e-9));
        const int m =
            static_cast<int>(rng.uniform(0.0, model.num_bands() - 1e-9));
        if (tx == rx || !usage.can_take(tx, rx, m)) continue;
        usage.take(tx, rx, m);
        ScheduledLink l;
        l.tx = tx;
        l.rx = rx;
        l.band = m;
        pre.push_back(l);
      }
    }

    // Zero price, or one on the scale of the candidate weights, so some
    // relay candidates are priced out and delivery links stay exempt.
    const double price =
        k % 3 == 2 ? 0.0 : std::pow(10.0, rng.uniform(-1.0, 3.0));

    const auto want = all_sessions_scan(state, in, pre, price);
    const auto got = build_fill_in_candidates(state, in, pre, price);
    ASSERT_EQ(got.size(), want.size()) << "instance " << k;
    for (std::size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(got[c].tx, want[c].tx) << "instance " << k << " #" << c;
      EXPECT_EQ(got[c].rx, want[c].rx) << "instance " << k << " #" << c;
      EXPECT_EQ(got[c].band, want[c].band) << "instance " << k << " #" << c;
      EXPECT_EQ(got[c].capacity_bps, want[c].capacity_bps)
          << "instance " << k << " #" << c;
      EXPECT_EQ(got[c].weight, want[c].weight)
          << "instance " << k << " #" << c;
    }
    instances_with_candidates += !want.empty();
    if (price > 0.0) {
      priced_out += want.size() < all_sessions_scan(state, in, pre, 0.0).size();
      for (const auto& c : want)
        for (int s = 0; s < model.num_sessions(); ++s)
          exempt_deliveries += model.session(s).destination == c.rx &&
                               model.topology().is_base_station(c.tx);
    }
  }
  // The instances exercise the scan, not only its early exits: pruning,
  // priced-out relays and penalty-exempt deliveries all occur.
  EXPECT_GE(instances_with_candidates, 40);
  EXPECT_GE(pruned, 20);
  EXPECT_GE(priced_out, 5);
  EXPECT_GE(exempt_deliveries, 5);
}

}  // namespace
}  // namespace gc::core
