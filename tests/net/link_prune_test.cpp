#include "net/link_prune.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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

}  // namespace
}  // namespace gc::net
