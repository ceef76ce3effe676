// Referee for the model's drift-plus-penalty constants: beta (Section IV-A),
// B of eq. (34) and each node's in-link bound, which sets the stability
// auditor's relay allowance. NetworkModel computes them once per node
// class; the oracle below is the pair-by-pair formula over every ordered
// node pair, and the two must agree bit for bit.
#include "core/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/stability.hpp"
#include "scenario/spec.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace gc::core {
namespace {

struct Constants {
  double beta = 0.0;
  double drift_b = 0.0;
  std::vector<double> in_link;  // max_link_packets(j, i) over j != i
};

// The per-pair formula. Per-node in/out maxima do not depend on the
// session, so they are computed once; b1 keeps the session-then-node
// summation order.
Constants oracle(const NetworkModel& m) {
  const int n = m.num_nodes();
  Constants c;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j) c.beta = std::max(c.beta, m.max_link_packets_all_radios(i, j));
  c.beta = std::max(c.beta, 1.0);

  std::vector<double> out_max(static_cast<std::size_t>(n), 0.0);
  std::vector<double> in_max(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      out_max[i] = std::max(out_max[i], m.max_link_packets(i, j));
      in_max[i] = std::max(in_max[i], m.max_link_packets(j, i));
    }
    c.in_link.push_back(in_max[i]);
    out_max[i] *= m.num_radios(i);
    in_max[i] *= m.num_radios(i);
  }
  double b1 = 0.0;
  for (int s = 0; s < m.num_sessions(); ++s)
    for (int i = 0; i < n; ++i) {
      const double admit = m.topology().is_base_station(i)
                               ? m.session(s).max_admit_packets
                               : 0.0;
      b1 += out_max[i] * out_max[i] +
            (in_max[i] + admit) * (in_max[i] + admit);
    }
  b1 *= 0.5;

  double b2 = 0.0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const double v = c.beta * m.max_link_packets_all_radios(i, j);
      b2 += v * v;
    }

  double b3 = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto& b = m.node(i).battery;
    b3 += std::max(b.max_charge_j * b.max_charge_j,
                   b.max_discharge_j * b.max_discharge_j);
  }
  b3 *= 0.5;

  c.drift_b = b1 + b2 + b3;
  return c;
}

void expect_matches_oracle(const NetworkModel& model, const std::string& what) {
  const Constants o = oracle(model);
  EXPECT_EQ(model.beta(), o.beta) << what;
  EXPECT_EQ(model.drift_constant_B(), o.drift_b) << what;
  // The auditor's queue bound: lambda * V + K_s^max + the relay allowance
  // n * R_i * in-link bound, with the in-link bound from the pair scan.
  const double V = 3.0, lambda = 1.5;
  const obs::AuditConfig audit = sim::make_audit_config(model, V, lambda);
  const int n = model.num_nodes(), S = model.num_sessions();
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(model.max_in_link_packets(i), o.in_link[i])
        << what << " node " << i;
    const double relay = model.config().multihop
                             ? static_cast<double>(n) * model.num_radios(i) *
                                   o.in_link[i]
                             : 0.0;
    for (int s = 0; s < S; ++s)
      EXPECT_EQ(audit.q_bound[static_cast<std::size_t>(i * S + s)],
                lambda * V + model.session(s).max_admit_packets + relay)
          << what << " node " << i << " session " << s;
  }
}

TEST(ModelConstants, MatchOracleOnEveryExampleScenario) {
  int checked = 0;
  for (const auto& e : std::filesystem::directory_iterator(
           std::string(GC_SCENARIO_EXAMPLES_DIR))) {
    if (e.path().extension() != ".json") continue;
    const scenario::ScenarioSpec spec =
        scenario::load_scenario_file(e.path().string());
    expect_matches_oracle(spec.config.build(), e.path().filename().string());
    ++checked;
  }
  EXPECT_GE(checked, 7);
}

// A small random configuration. The knobs are the ones the constants
// depend on: the architecture (one-hop links depend on which users are
// destinations), radios, band masks, base-station tiers, and more sessions
// than users so destinations wrap.
sim::ScenarioConfig random_config(Rng& rng) {
  sim::ScenarioConfig c = sim::ScenarioConfig::tiny();
  c.seed = rng.next_u64();
  c.num_users = static_cast<int>(rng.uniform_int(1, 12));
  if (rng.bernoulli(0.5)) {
    c.topology.layout = sim::TopologySpec::Layout::HexGrid;
    c.topology.rows = static_cast<int>(rng.uniform_int(1, 2));
    c.topology.cols = static_cast<int>(rng.uniform_int(1, 2));
  }
  c.multihop = rng.bernoulli(0.5);
  c.bs_radios = static_cast<int>(rng.uniform_int(1, 3));
  c.user_radios = static_cast<int>(rng.uniform_int(1, 3));
  c.spectrum.num_random_bands = static_cast<int>(rng.uniform_int(0, 4));
  const double p[] = {0.0, 0.2, 0.5, 0.8, 1.0};
  c.spectrum.user_band_probability = p[rng.uniform_int(0, 4)];
  c.num_sessions = static_cast<int>(rng.uniform_int(1, c.num_users + 3));
  c.admit_factor = rng.uniform(1.0, 3.0);
  const double bits[] = {3e6, 1e6, 4e5};
  c.packet_bits = bits[rng.uniform_int(0, 2)];
  if (rng.bernoulli(0.3)) {
    policy::TierSpec macro;
    macro.name = "macro";
    macro.count = 1;
    c.bs_tiers.push_back(macro);
  }
  return c;
}

TEST(ModelConstants, MatchOracleOnRandomSmallConfigs) {
  Rng rng(20260417);
  for (int trial = 0; trial < 240; ++trial) {
    const sim::ScenarioConfig cfg = random_config(rng);
    const NetworkModel model = cfg.build();
    expect_matches_oracle(model, "trial " + std::to_string(trial));
    if (HasFailure()) return;
  }
}

TEST(ModelConstants, OneHopLinksAreBaseStationToDestination) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    sim::ScenarioConfig cfg = random_config(rng);
    cfg.multihop = false;
    const NetworkModel model = cfg.build();
    const int n = model.num_nodes();
    for (int tx = 0; tx < n; ++tx)
      for (int rx = 0; rx < n; ++rx) {
        bool destination = false;
        for (const Session& s : model.sessions())
          destination = destination || s.destination == rx;
        const bool expect = tx != rx && model.topology().is_base_station(tx) &&
                            !model.topology().is_base_station(rx) &&
                            destination;
        ASSERT_EQ(model.link_allowed(tx, rx), expect) << tx << "->" << rx;
      }
  }
}

}  // namespace
}  // namespace gc::core
