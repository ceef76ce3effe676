// Theory auditor end-to-end (src/obs/stability.hpp wired through
// sim/simulator.cpp): the paper baseline must audit clean over a long run,
// the audit contract must match the paper's formulas exactly, and a
// deliberately destabilized network must trip the estimator — including
// the --strict-bounds abort path.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "obs/registry.hpp"
#include "obs/stability.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace gc::sim {
namespace {

// The crippled network of Stability.NegativeControlOverloadedRelayDetected:
// 20 kHz of spectrum against an unthrottled offered load grows backlog
// linearly.
ScenarioConfig overloaded_tiny() {
  auto cfg = ScenarioConfig::tiny();
  cfg.spectrum.cellular_bandwidth_hz = 2e4;
  cfg.spectrum.num_random_bands = 0;
  cfg.lambda = 1e7;
  return cfg;
}

// Totals of the stability.* counters in the global registry (the test
// thread's instruments resolve there — nothing in this binary installs a
// ThreadRegistryScope on the main thread).
struct StabilityTotals {
  double audited, q, z, drift, unstable;
  static StabilityTotals read() {
    obs::Registry& r = obs::registry();
    return {r.counter("stability.audited_slots").total(),
            r.counter("stability.q_bound_violations").total(),
            r.counter("stability.z_bound_violations").total(),
            r.counter("stability.drift_bound_violations").total(),
            r.counter("stability.unstable_windows").total()};
  }
};

// Acceptance bar: the paper baseline audits clean for >= 2000 slots. Run
// under strict bounds — any queue, battery, or window violation would
// abort — and cross-check the violation counters stayed flat.
TEST(Audit, PaperBaselineAuditsCleanOverTwoThousandSlots) {
  const auto cfg = ScenarioConfig::paper();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  SimOptions opt;
  opt.strict_bounds = true;
  const StabilityTotals before = StabilityTotals::read();
  const Metrics m = run_simulation(model, controller, 2000, opt);
  EXPECT_EQ(m.slots, 2000);
  const StabilityTotals after = StabilityTotals::read();
  EXPECT_DOUBLE_EQ(after.audited - before.audited, 2000.0);
  EXPECT_DOUBLE_EQ(after.q - before.q, 0.0);
  EXPECT_DOUBLE_EQ(after.z - before.z, 0.0);
  EXPECT_DOUBLE_EQ(after.drift - before.drift, 0.0);
  EXPECT_DOUBLE_EQ(after.unstable - before.unstable, 0.0);
}

// Validate mode feeds the auditor the Lemma-1 sample-path RHS
// (B + Psi1..Psi4 at the pre-decision state); under strict bounds any slot
// whose drift-plus-penalty exceeded it would abort.
TEST(Audit, DriftBoundHoldsSlotBySlotUnderValidation) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 2.0, cfg.controller_options());
  SimOptions opt;
  opt.validate = true;
  opt.strict_bounds = true;
  EXPECT_NO_THROW(run_simulation(model, controller, 300, opt));
}

// The audit contract matches the paper's formulas exactly: shifted-battery
// range from shift_i = V*gamma_max + d_i^max (Section IV-B), source queue
// bounds lambda*V + K_s^max plus the relay allowance.
TEST(Audit, ConfigMatchesPaperFormulasExactly) {
  const auto cfg = ScenarioConfig::paper();
  const auto model = cfg.build();
  const double V = 3.0;
  const obs::AuditConfig audit = make_audit_config(model, V, cfg.lambda);
  const int n = model.num_nodes();
  const int S = model.num_sessions();
  ASSERT_EQ(audit.q_bound.size(), static_cast<std::size_t>(n * S));
  ASSERT_EQ(audit.z_min.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(audit.z_max.size(), static_cast<std::size_t>(n));
  EXPECT_DOUBLE_EQ(audit.V, V);
  EXPECT_DOUBLE_EQ(audit.lambda, cfg.lambda);
  for (int i = 0; i < n; ++i) {
    const double shift =
        V * model.gamma_max() + model.node(i).battery.max_discharge_j;
    EXPECT_DOUBLE_EQ(model.shift_j(i, V), shift) << i;
    EXPECT_DOUBLE_EQ(audit.z_min[static_cast<std::size_t>(i)], -shift) << i;
    EXPECT_DOUBLE_EQ(audit.z_max[static_cast<std::size_t>(i)],
                     model.node(i).battery.capacity_j - shift)
        << i;
    double in_max = 0.0;
    for (int j = 0; j < n; ++j)
      if (j != i) in_max = std::max(in_max, model.max_link_packets(j, i));
    const double relay =
        model.config().multihop ? n * model.num_radios(i) * in_max : 0.0;
    for (int s = 0; s < S; ++s)
      EXPECT_DOUBLE_EQ(
          audit.q_bound[static_cast<std::size_t>(i * S + s)],
          cfg.lambda * V + model.session(s).max_admit_packets + relay)
          << "node " << i << " session " << s;
  }
}

// Negative control: the overloaded network's backlog grows linearly, so
// the windowed convergence estimator must flag unstable windows. (The
// queue bounds themselves scale with lambda = 1e7 and stay formally
// satisfied — growth detection is exactly what the windows are for.)
TEST(Audit, DestabilizedRunTripsUnstableWindowCounters) {
  const auto cfg = overloaded_tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 2.0, cfg.controller_options());
  SimOptions opt;
  opt.audit_window_slots = 32;
  const StabilityTotals before = StabilityTotals::read();
  run_simulation(model, controller, 300, opt);
  const StabilityTotals after = StabilityTotals::read();
  EXPECT_DOUBLE_EQ(after.audited - before.audited, 300.0);
  EXPECT_GT(after.unstable - before.unstable, 0.0);
}

// ... and under --strict-bounds the same run aborts with a message naming
// the broken guarantee.
TEST(Audit, StrictBoundsAbortsOnDestabilizedRun) {
  const auto cfg = overloaded_tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 2.0, cfg.controller_options());
  SimOptions opt;
  opt.strict_bounds = true;
  opt.audit_window_slots = 32;
  try {
    run_simulation(model, controller, 300, opt);
    FAIL() << "expected CheckError from --strict-bounds";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("slot"), std::string::npos) << msg;
    EXPECT_NE(msg.find("still growing"), std::string::npos) << msg;
  }
}

// The audit is a pure observer: an audited run_simulation produces the
// same per-slot series as a hand-driven loop over the same inputs that
// runs no auditor.
TEST(Audit, AuditingDoesNotPerturbTheRun) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  const SimOptions opt;
  const int slots = 120;
  core::LyapunovController audited(model, 2.0, cfg.controller_options());
  const StabilityTotals before = StabilityTotals::read();
  const Metrics m = run_simulation(model, audited, slots, opt);
  EXPECT_DOUBLE_EQ(StabilityTotals::read().audited - before.audited, slots);
  ASSERT_EQ(m.slots, slots);

  core::LyapunovController bare(model, 2.0, cfg.controller_options());
  bare.mutable_state().set_sanitize(true);
  Rng rng(opt.input_seed);
  double delivered = 0.0, admitted = 0.0;
  for (int t = 0; t < slots; ++t) {
    const core::SlotDecision d = bare.step(model.sample_inputs(t, rng));
    const core::NetworkState& st = bare.state();
    EXPECT_EQ(d.cost, m.cost[t]) << t;
    EXPECT_EQ(d.grid_total_j, m.grid_j[t]) << t;
    EXPECT_EQ(st.total_data_queue_bs(), m.q_bs[t]) << t;
    EXPECT_EQ(st.total_data_queue_users(), m.q_users[t]) << t;
    EXPECT_EQ(st.total_battery_bs_j(), m.battery_bs_j[t]) << t;
    EXPECT_EQ(st.total_battery_users_j(), m.battery_users_j[t]) << t;
    for (const auto& r : d.routes)
      if (r.rx == model.session(r.session).destination)
        delivered += r.packets;
    for (const auto& a : d.admissions) admitted += a.packets;
  }
  EXPECT_EQ(delivered, m.total_delivered_packets);
  EXPECT_EQ(admitted, m.total_admitted_packets);
}

}  // namespace
}  // namespace gc::sim
