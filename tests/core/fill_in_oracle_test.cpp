// Exact-oracle tests for S1's candidate scans. build_fill_in_candidates
// visits only the sessions a transmitter holds packets for, and scores a
// receiver that holds nothing without a per-session loop; the first oracle
// below is the all-sessions scan it replaced. greedy_select takes
// candidates through per-transmitter heaps instead of a sort; the second
// oracle is the sort-then-scan greedy it replaced. build_candidates walks
// only the stored G > 0 entries; the third oracle is the scan over every
// in-range pair it replaced. On seeded random small instances each pair
// must agree element for element, with == on the doubles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/scheduler.hpp"
#include "net/capacity.hpp"
#include "net/link_prune.hpp"
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

// Receivers the scan scores, by the branch build_fill_in_candidates takes
// for them: one that holds no packet at all, or the per-session loop. The
// per-session ones whose backlog sits only in sessions the transmitter
// lacks are counted once more in `disjoint`.
struct ScoredReceivers {
  int empty = 0, per_session = 0, disjoint = 0;
};

// The all-sessions scan: every session on every in-range pair.
std::vector<CandidateLinkBand> all_sessions_scan(
    const NetworkState& state, const SlotInputs& inputs,
    const std::vector<ScheduledLink>& already_scheduled, double price,
    ScoredReceivers* scored = nullptr) {
  const auto& model = state.model();
  const int n = model.num_nodes();
  const int num_sessions = model.num_sessions();
  Usage usage(model, already_scheduled);
  const net::LinkPruneMap* prune = model.pruned_links();
  std::vector<CandidateLinkBand> out;
  for (int i = 0; i < n; ++i) {
    if (usage.saturated(i) || inputs.node_is_inactive(i)) continue;
    const auto scan_rx = [&](int j) {
      if (usage.saturated(j) || !model.link_allowed(i, j)) return;
      if (inputs.node_is_inactive(j) || inputs.link_is_faded(i, j, n)) return;
      if (scored != nullptr) {
        bool tx_live = false, rx_holds = false, shared = false;
        for (int s = 0; s < num_sessions; ++s) {
          const bool at_i = state.q(i, s) > 0.0, at_j = state.q(j, s) > 0.0;
          tx_live = tx_live || at_i;
          rx_holds = rx_holds || at_j;
          shared = shared || (at_i && at_j);
        }
        if (tx_live) {
          ++(rx_holds ? scored->per_session : scored->empty);
          scored->disjoint += rx_holds && !shared;
        }
      }
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
  ScoredReceivers scored;
  for (std::uint64_t k = 0; k < 80; ++k) {
    // From instance 64 on, each node is backlogged only in the sessions of
    // its own index parity, so many receivers hold packets only in
    // sessions their transmitter lacks.
    const bool parity_backlog = k >= 64;
    Rng rng(9000 + k);
    sim::ScenarioConfig cfg = sim::ScenarioConfig::tiny();
    cfg.seed = 100 + k;
    cfg.num_users = 3 + static_cast<int>(k % 6);
    cfg.num_sessions = parity_backlog ? 2 + static_cast<int>(k % 3)
                                      : 1 + static_cast<int>(k % 4);
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
        if (parity_backlog ? (i + s) % 2 == 0 : rng.uniform(0.0, 1.0) < 0.5)
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

    const auto want = all_sessions_scan(state, in, pre, price, &scored);
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
  // Both branches of the receiver scoring run, and the per-session one
  // also on receivers whose backlog no transmitter session shares.
  EXPECT_GE(scored.empty, 100);
  EXPECT_GE(scored.per_session, 300);
  EXPECT_GE(scored.disjoint, 100);
}

// The sort-then-scan greedy: every candidate sorted by weight descending,
// then tx, rx, band ascending, each taken if the radio budget admits it.
std::vector<ScheduledLink> sort_then_scan(
    const NetworkModel& model, std::vector<CandidateLinkBand> cands,
    std::vector<ScheduledLink> schedule) {
  Usage usage(model, schedule);
  std::sort(cands.begin(), cands.end(),
            [](const CandidateLinkBand& a, const CandidateLinkBand& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (a.tx != b.tx) return a.tx < b.tx;
              if (a.rx != b.rx) return a.rx < b.rx;
              return a.band < b.band;
            });
  for (const auto& c : cands) {
    if (!usage.can_take(c.tx, c.rx, c.band)) continue;
    usage.take(c.tx, c.rx, c.band);
    schedule.push_back(ScheduledLink{c.tx, c.rx, c.band, 0.0, c.capacity_bps});
  }
  return schedule;
}

TEST(Scheduler, GreedyFillMatchesFullSort) {
  int split_tx = 0, tied_picks = 0;
  for (std::uint64_t k = 0; k < 200; ++k) {
    Rng rng(7000 + k);
    sim::ScenarioConfig cfg = sim::ScenarioConfig::tiny();
    cfg.seed = 300 + k;
    cfg.num_users = 2 + static_cast<int>(k % 7);
    cfg.bs_radios = 1 + static_cast<int>(k % 3);
    cfg.user_radios = 1 + static_cast<int>(k / 3 % 2);
    const NetworkModel model = cfg.build();
    const int n = model.num_nodes();
    const int bands = model.num_bands();
    const auto pick = [&](int count) {
      return static_cast<int>(rng.uniform(0.0, count - 1e-9));
    };

    // Distinct (tx, rx, band) triples, as the builders emit, with weights
    // from four values, so most candidates tie exactly with others.
    std::vector<char> seen(static_cast<std::size_t>(n) * n * bands, 0);
    std::vector<CandidateLinkBand> cands;
    const int wanted = 1 + pick(4 * n);
    for (int t = 0; t < 8 * n && static_cast<int>(cands.size()) < wanted;
         ++t) {
      const int tx = pick(n), rx = pick(n), m = pick(bands);
      char& used = seen[(static_cast<std::size_t>(tx) * n + rx) * bands + m];
      if (tx == rx || used) continue;
      used = 1;
      cands.push_back(CandidateLinkBand{tx, rx, m, rng.uniform(1e6, 2e6),
                                        1.0 + pick(4)});
    }
    // Builder order (tx, rx, band ascending: one run per tx), or that
    // order with a random tail shuffled in, which splits a tx across runs.
    std::sort(cands.begin(), cands.end(),
              [](const CandidateLinkBand& a, const CandidateLinkBand& b) {
                if (a.tx != b.tx) return a.tx < b.tx;
                if (a.rx != b.rx) return a.rx < b.rx;
                return a.band < b.band;
              });
    if (k % 2 == 1)
      for (std::size_t v = cands.size(); v > cands.size() / 3 + 1; --v)
        std::swap(cands[v - 1], cands[static_cast<std::size_t>(
                                    pick(static_cast<int>(v)))]);
    std::vector<int> last_run(static_cast<std::size_t>(n), -1);
    bool split = false;
    for (std::size_t v = 0; v < cands.size(); ++v) {
      const int tx = cands[v].tx;
      split = split || (last_run[tx] >= 0 &&
                        static_cast<std::size_t>(last_run[tx]) + 1 != v);
      last_run[tx] = static_cast<int>(v);
    }
    split_tx += split;

    // A partial schedule the greedy must respect, as the fill-in respects
    // what SF took.
    std::vector<ScheduledLink> pre;
    {
      Usage usage(model, {});
      for (int t = static_cast<int>(k % 4); t > 0; --t) {
        const int tx = pick(n), rx = pick(n), m = pick(bands);
        if (tx == rx || !usage.can_take(tx, rx, m)) continue;
        usage.take(tx, rx, m);
        pre.push_back(ScheduledLink{tx, rx, m, 0.0, 1e6});
      }
    }

    const auto want = sort_then_scan(model, cands, pre);
    std::vector<ScheduledLink> got = pre;
    greedy_select(model, cands, got);
    ASSERT_EQ(got.size(), want.size()) << "instance " << k;
    for (std::size_t l = 0; l < got.size(); ++l) {
      EXPECT_EQ(got[l].tx, want[l].tx) << "instance " << k << " #" << l;
      EXPECT_EQ(got[l].rx, want[l].rx) << "instance " << k << " #" << l;
      EXPECT_EQ(got[l].band, want[l].band) << "instance " << k << " #" << l;
      EXPECT_EQ(got[l].capacity_bps, want[l].capacity_bps)
          << "instance " << k << " #" << l;
    }
    // Picks that won over a candidate of equal weight and tx on the rx
    // tie-break alone.
    for (std::size_t l = pre.size(); l < want.size(); ++l) {
      const auto is_pick = [&](const CandidateLinkBand& c) {
        return c.tx == want[l].tx && c.rx == want[l].rx &&
               c.band == want[l].band;
      };
      const double w =
          std::find_if(cands.begin(), cands.end(), is_pick)->weight;
      tied_picks += std::any_of(
          cands.begin(), cands.end(), [&](const CandidateLinkBand& c) {
            return c.tx == want[l].tx && c.weight == w && c.rx != want[l].rx;
          });
    }
  }
  // The instances exercise what the heaps must get right: a tx split
  // across runs, and ties that only the rx order breaks.
  EXPECT_GE(split_tx, 50);
  EXPECT_GE(tied_picks, 100);
}

// build_candidates as a scan over pairs: for every active transmitter,
// every receiver j != i (or the prune map's in-range list), ascending,
// keeping the pairs with H > 0.
std::vector<CandidateLinkBand> dense_candidate_scan(const NetworkState& state,
                                                    const SlotInputs& inputs) {
  const auto& model = state.model();
  const int n = model.num_nodes();
  const double pkts_per_bps = model.slot_seconds() / model.packet_bits();
  std::vector<CandidateLinkBand> out;
  for (int i = 0; i < n; ++i) {
    if (inputs.node_is_inactive(i)) continue;
    const auto scan_rx = [&](int j) {
      if (!model.link_allowed(i, j)) return;
      if (inputs.node_is_inactive(j) || inputs.link_is_faded(i, j, n)) return;
      const double h = state.h(i, j);
      if (h <= 0.0) return;
      for (int m = 0; m < model.num_bands(); ++m) {
        const double c = net::nominal_capacity_bps(
            inputs.bandwidth_hz[m], model.radio().sinr_threshold);
        if (c <= 0.0 || !model.spectrum().link_band_ok(i, j, m)) continue;
        const double weight = model.beta() * h * c * pkts_per_bps;
        if (weight <= 0.0) continue;
        out.push_back(CandidateLinkBand{i, j, m, c, weight});
      }
    };
    if (const net::LinkPruneMap* prune = model.pruned_links()) {
      for (int j : prune->out_neighbors(i)) scan_rx(j);
    } else {
      for (int j = 0; j < n; ++j)
        if (j != i) scan_rx(j);
    }
  }
  return out;
}

// Seeded states with pruning on and off, one-hop and multihop models, 2-5
// bands (one of them sometimes 0 Hz wide), down, asleep and faded
// elements, fractional and subnormal G, and users moved after G was set so
// that links with G > 0 fall out of range.
TEST(Scheduler, CandidatesMatchDenseScan) {
  int with_candidates = 0, pruned = 0, out_of_range = 0;
  for (std::uint64_t k = 0; k < 80; ++k) {
    Rng rng(7100 + k);
    sim::ScenarioConfig cfg = sim::ScenarioConfig::tiny();
    cfg.seed = 300 + k;
    cfg.num_users = 3 + static_cast<int>(k % 8);
    cfg.num_sessions = 1 + static_cast<int>(k % 3);
    cfg.area_m = k % 3 == 0 ? 2000.0 : 800.0;
    cfg.spectrum.num_random_bands = 1 + static_cast<int>(k % 4);
    cfg.multihop = k % 5 != 4;
    cfg.link_prune = k % 2 == 1;
    pruned += cfg.link_prune;
    NetworkModel model = cfg.build();
    const int n = model.num_nodes();

    NetworkState state(model, 2.0);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        if (i == j || rng.uniform01() >= 0.3) continue;
        const double u = rng.uniform01();
        state.set_g_queue(i, j, u < 0.05  ? 4.9e-324
                                : u < 0.5 ? rng.uniform(0.0, 40.0)
                                          : std::floor(rng.uniform(1.0, 40.0)));
      }

    if (cfg.link_prune && k % 4 == 1) {
      // Mobility after the map was built: every user jumps somewhere in a
      // 10 km square, and the next pruned_links() drops the cached rows.
      model.pruned_links();
      const int first_user = model.topology().num_base_stations();
      std::vector<net::Vec2> moved;
      for (int u = first_user; u < n; ++u)
        moved.push_back({rng.uniform(-5000.0, 5000.0),
                         rng.uniform(-5000.0, 5000.0)});
      model.mutable_topology().set_positions(first_user, moved);
      const net::LinkPruneMap* prune = model.pruned_links();
      for (const GEntry& e : state.g_entries())
        out_of_range += !prune->in_range(static_cast<int>(e.link / n),
                                         static_cast<int>(e.link % n));
    }

    SlotInputs in;
    for (int m = 0; m < model.num_bands(); ++m)
      in.bandwidth_hz.push_back(rng.uniform(0.5e6, 2e6));
    if (k % 7 == 3) in.bandwidth_hz.back() = 0.0;
    in.renewable_j.assign(static_cast<std::size_t>(n), 0.0);
    in.grid_connected.assign(static_cast<std::size_t>(n), 1);
    if (k % 4 != 0) {
      in.node_down.assign(static_cast<std::size_t>(n), 0);
      in.node_asleep.assign(static_cast<std::size_t>(n), 0);
      in.link_faded.assign(static_cast<std::size_t>(n) * n, 0);
      for (int i = 0; i < n; ++i) {
        in.node_down[i] = rng.uniform01() < 0.1;
        in.node_asleep[i] = rng.uniform01() < 0.1;
      }
      for (char& f : in.link_faded) f = rng.uniform01() < 0.15;
    }

    const auto want = dense_candidate_scan(state, in);
    const auto got = build_candidates(state, in);
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
    with_candidates += !want.empty();
  }
  // The instances reach the scan's filters, not only its early exits.
  EXPECT_GE(with_candidates, 50);
  EXPECT_GE(pruned, 40);
  EXPECT_GE(out_of_range, 20);
}

}  // namespace
}  // namespace gc::core
