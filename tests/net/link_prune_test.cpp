#include "net/link_prune.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace gc::net {
namespace {

// The per-band range test of net/link_prune.hpp, written out pair by pair
// and band by band through the checked accessors.
bool reference_in_range(const Topology& topo, const Spectrum& spectrum,
                        const RadioParams& radio,
                        const std::vector<double>& pmax, int tx, int rx) {
  const auto& sc = spectrum.config();
  for (int m = 0; m < spectrum.num_bands(); ++m) {
    const double w_min =
        m == 0 ? sc.cellular_bandwidth_hz : sc.random_bandwidth_lo_hz;
    const double need = radio.sinr_threshold * radio.noise_psd_w_per_hz * w_min;
    if (spectrum.link_band_ok(tx, rx, m) && pmax[tx] * topo.gain(tx, rx) >= need)
      return true;
  }
  return false;
}

void expect_matches_reference(const Topology& topo, const Spectrum& spectrum,
                              const RadioParams& radio,
                              const std::vector<double>& pmax) {
  const LinkPruneMap map(topo, spectrum, radio, pmax);
  const int n = topo.num_nodes();
  std::int64_t kept = 0;
  for (int tx = 0; tx < n; ++tx) {
    std::vector<int> expect;
    for (int rx = 0; rx < n; ++rx) {
      if (rx == tx) continue;
      const bool ok = reference_in_range(topo, spectrum, radio, pmax, tx, rx);
      ASSERT_EQ(map.in_range(tx, rx), ok) << tx << "->" << rx;
      if (ok) expect.push_back(rx);
    }
    ASSERT_EQ(map.out_neighbors(tx), expect) << "tx " << tx;
    kept += static_cast<std::int64_t>(expect.size());
  }
  EXPECT_EQ(map.kept_links(), kept);
  EXPECT_EQ(map.pruned_links(), map.total_links() - kept);
  EXPECT_EQ(map.topology_version(), topo.version());
}

TEST(LinkPrune, MatchesPerBandReferenceOnRandomTopologies) {
  Rng rng(2024);
  int pruned_somewhere = 0, kept_somewhere = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int bs = static_cast<int>(rng.uniform_int(1, 4));
    const int users = static_cast<int>(rng.uniform_int(1, 40));
    const double area = rng.uniform(500.0, 4000.0);
    std::vector<Vec2> bs_pos, user_pos;
    for (int i = 0; i < bs; ++i)
      bs_pos.push_back({rng.uniform(0.0, area), rng.uniform(0.0, area)});
    for (int i = 0; i < users; ++i)
      user_pos.push_back({rng.uniform(0.0, area), rng.uniform(0.0, area)});
    Topology topo(bs_pos, user_pos, PropagationParams{});

    SpectrumConfig sc;
    sc.num_random_bands = static_cast<int>(rng.uniform_int(0, 5));
    sc.user_band_probability = rng.uniform01();
    // Unequal band floors, so which shared band is cheapest matters.
    sc.cellular_bandwidth_hz = rng.uniform(0.5e6, 2e6);
    sc.random_bandwidth_lo_hz = rng.uniform(0.5e6, 2e6);
    sc.random_bandwidth_hi_hz = sc.random_bandwidth_lo_hz + 1e6;
    Spectrum spectrum(sc, topo.num_nodes(), bs, rng);
    const RadioParams radio{rng.uniform(0.5, 4.0), 1.5e-16};
    std::vector<double> pmax;
    for (int i = 0; i < topo.num_nodes(); ++i)
      pmax.push_back(topo.is_base_station(i) ? 20.0 : rng.uniform(0.1, 2.0));

    expect_matches_reference(topo, spectrum, radio, pmax);
    for (int move = 0; move < 3; ++move) {
      const int node = static_cast<int>(rng.uniform_int(0, topo.num_nodes() - 1));
      topo.set_position(node, {rng.uniform(0.0, area), rng.uniform(0.0, area)});
      expect_matches_reference(topo, spectrum, radio, pmax);
    }
    const LinkPruneMap map(topo, spectrum, radio, pmax);
    pruned_somewhere += map.pruned_links() > 0;
    kept_somewhere += map.kept_links() > 0;
  }
  // The geometry must exercise both outcomes.
  EXPECT_GT(pruned_somewhere, 0);
  EXPECT_GT(kept_somewhere, 0);
}

// Receivers placed right at the range threshold of a transmitter class,
// where the distance screen hands the decision to the exact test. For a
// transmitter at the origin with cap p_max and a receiver whose cheapest
// shared band needs `need` watts, the threshold distance is
// d* = (p_max * C / need)^(1/gamma). Receivers sit at d* moved by 1..4 ulps
// and by +-0.5e-9 / +-1e-9 relative, along an axis and along a 3-4-5
// diagonal. Classes cover p_max = 0, zero noise (need = 0), an infinite
// threshold (need = +inf, what a pair with no shared band gets), and
// thresholds inside the distance floor.
TEST(LinkPrune, ScreenMatchesExactTestAtThreshold) {
  struct Class {
    double pmax;
    double noise;
    double sinr;
    double gamma;
    double min_distance;
  };
  const std::vector<Class> classes = {
      {20.0, 1.5e-16, 1.0, 4.0, 1.0},     // base-station cap
      {0.37, 1.5e-16, 2.5, 4.0, 1.0},     // user cap, higher threshold
      {1.0, 1.5e-16, 1.0, 3.3, 1.0},      // non-integer exponent
      {1e-9, 1e-10, 1.0, 4.0, 1.0},       // threshold inside the floor
      {5.0, 1e-12, 1.0, 2.0, 40.0},       // wide floor
      {0.0, 1.5e-16, 1.0, 4.0, 1.0},      // p_max = 0
      {0.0, 0.0, 1.0, 4.0, 1.0},          // p_max = 0 and need = 0 (NaN T)
      {2.0, 0.0, 1.0, 4.0, 1.0},          // need = 0 (infinite T)
      {2.0, 1.5e-16, std::numeric_limits<double>::infinity(), 4.0, 1.0},
  };
  Rng rng(7331);
  int trial = 0;
  for (const Class& c : classes) {
    for (const bool anchor_is_user : {false, true}) {
      SCOPED_TRACE(testing::Message() << "class " << trial++);
      // Two base stations; the anchor transmitter is node 0 (a base
      // station) or node 2 (a user); 30 receivers follow.
      const int bs = 2;
      const int users = 31;
      const int n = bs + users;
      SpectrumConfig sc;
      sc.num_random_bands = 3;
      sc.user_band_probability = 0.5;
      sc.cellular_bandwidth_hz = 1.3e6;
      sc.random_bandwidth_lo_hz = 0.7e6;
      sc.random_bandwidth_hi_hz = 1.7e6;
      Spectrum spectrum(sc, n, bs, rng);
      const RadioParams radio{c.sinr, c.noise};
      PropagationParams prop;
      prop.path_loss_exponent = c.gamma;
      prop.min_distance_m = c.min_distance;
      const int anchor = anchor_is_user ? bs : 0;

      std::vector<double> pmax(static_cast<std::size_t>(n), 1.0);
      pmax[anchor] = c.pmax;
      std::vector<Vec2> pos(static_cast<std::size_t>(n));
      pos[0] = {anchor_is_user ? 9000.0 : 0.0, 0.0};
      pos[1] = {-9000.0, 5000.0};
      pos[bs] = {anchor_is_user ? 0.0 : 4000.0, anchor_is_user ? 0.0 : 7000.0};
      const std::vector<int> ulps = {1, 2, 3, 4};
      const std::vector<double> rel = {0.5e-9, 1e-9};
      for (int rx = bs + 1; rx < n; ++rx) {
        double need = std::numeric_limits<double>::infinity();
        for (int m = 0; m < spectrum.num_bands(); ++m)
          if (spectrum.link_band_ok(anchor, rx, m))
            need = std::min(need, radio.sinr_threshold *
                                      radio.noise_psd_w_per_hz *
                                      (m == 0 ? sc.cellular_bandwidth_hz
                                              : sc.random_bandwidth_lo_hz));
        double d_star =
            std::pow(c.pmax * prop.antenna_constant / need, 1.0 / c.gamma);
        if (!std::isfinite(d_star) || !(d_star > 0.0)) d_star = 250.0;
        // Receiver k gets one perturbation of d*, cycling through the list.
        const int k = rx - (bs + 1);
        double d = d_star;
        const int kind = k % 12;
        if (kind < 8) {
          const int steps = ulps[static_cast<std::size_t>(kind % 4)];
          for (int u = 0; u < steps; ++u)
            d = std::nextafter(d, kind < 4 ? 0.0 : HUGE_VAL);
        } else {
          const double r = rel[static_cast<std::size_t>(kind % 2)];
          d = d_star * (kind < 10 ? 1.0 - r : 1.0 + r);
        }
        pos[rx] = (k / 12) % 2 == 0 ? Vec2{pos[anchor].x + d, pos[anchor].y}
                                    : Vec2{pos[anchor].x + 0.6 * d,
                                           pos[anchor].y + 0.8 * d};
      }
      const std::vector<Vec2> bs_pos(pos.begin(), pos.begin() + bs);
      const std::vector<Vec2> user_pos(pos.begin() + bs, pos.end());
      const Topology topo(bs_pos, user_pos, prop);
      expect_matches_reference(topo, spectrum, radio, pmax);
    }
  }
}


// Rows screened on demand, against the per-band reference: on random
// topologies, rows are requested in random order (some twice, some never),
// nodes move between requests (set_positions, then sync), and every row
// read and random in_range pairs must equal the reference for the current
// positions — so a row cached before a move must never be served after it.
TEST(LinkPrune, RowsOnDemandMatchFullScreen) {
  Rng rng(4343);
  int moved_reads = 0;
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const int bs = static_cast<int>(rng.uniform_int(1, 4));
    const int users = static_cast<int>(rng.uniform_int(2, 40));
    const double area = rng.uniform(500.0, 4000.0);
    std::vector<Vec2> bs_pos, user_pos;
    for (int i = 0; i < bs; ++i)
      bs_pos.push_back({rng.uniform(0.0, area), rng.uniform(0.0, area)});
    for (int i = 0; i < users; ++i)
      user_pos.push_back({rng.uniform(0.0, area), rng.uniform(0.0, area)});
    Topology topo(bs_pos, user_pos, PropagationParams{});
    const int n = topo.num_nodes();

    SpectrumConfig sc;
    sc.num_random_bands = static_cast<int>(rng.uniform_int(0, 5));
    sc.user_band_probability = rng.uniform01();
    sc.cellular_bandwidth_hz = rng.uniform(0.5e6, 2e6);
    sc.random_bandwidth_lo_hz = rng.uniform(0.5e6, 2e6);
    sc.random_bandwidth_hi_hz = sc.random_bandwidth_lo_hz + 1e6;
    Spectrum spectrum(sc, n, bs, rng);
    const RadioParams radio{rng.uniform(0.5, 4.0), 1.5e-16};
    std::vector<double> pmax;
    for (int i = 0; i < n; ++i)
      pmax.push_back(topo.is_base_station(i) ? 20.0 : rng.uniform(0.1, 2.0));

    LinkPruneMap map(topo, spectrum, radio, pmax);
    bool moved = false;
    for (int op = 0; op < 4 * n; ++op) {
      const double u = rng.uniform01();
      if (u < 0.15) {
        // A walk step: a block of users moves, as mobility does.
        const int first = static_cast<int>(rng.uniform_int(bs, n - 1));
        const int count = static_cast<int>(rng.uniform_int(1, n - first));
        std::vector<Vec2> to;
        for (int k = 0; k < count; ++k)
          to.push_back({rng.uniform(0.0, area), rng.uniform(0.0, area)});
        topo.set_positions(first, to);
        map.sync(topo);
        moved = true;
      } else if (u < 0.7) {
        const int tx = static_cast<int>(rng.uniform_int(0, n - 1));
        std::vector<int> expect;
        for (int rx = 0; rx < n; ++rx)
          if (rx != tx && reference_in_range(topo, spectrum, radio, pmax, tx, rx))
            expect.push_back(rx);
        ASSERT_EQ(map.out_neighbors(tx), expect) << "tx " << tx << " op " << op;
        moved_reads += moved;
      } else {
        const int tx = static_cast<int>(rng.uniform_int(0, n - 1));
        const int rx = static_cast<int>(rng.uniform_int(0, n - 1));
        ASSERT_EQ(map.in_range(tx, rx),
                  rx != tx &&
                      reference_in_range(topo, spectrum, radio, pmax, tx, rx))
            << tx << "->" << rx << " op " << op;
      }
    }
    EXPECT_EQ(map.topology_version(), topo.version());
  }
  EXPECT_GT(moved_reads, 0);
}

}  // namespace
}  // namespace gc::net
