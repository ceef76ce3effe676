#include "core/psi.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/controller.hpp"
#include "sim/scenario.hpp"

namespace gc::core {
namespace {

class PsiTest : public ::testing::Test {
 protected:
  PsiTest() : model_(sim::ScenarioConfig::tiny().build()) {}
  NetworkModel model_;
};

TEST_F(PsiTest, LyapunovCountsAllThreeQueueFamilies) {
  NetworkState state(model_, 2.0);
  // Zero out batteries so only the chosen components contribute.
  for (int i = 0; i < model_.num_nodes(); ++i) state.set_battery_j(i, 0.0);
  double base = lyapunov(state);  // sum of z^2 at x = 0
  state.set_q(0, 0, 3.0);
  EXPECT_DOUBLE_EQ(lyapunov(state), base + 0.5 * 9.0);
  state.set_g_queue(0, 2, 2.0);
  const double h = model_.beta() * 2.0;
  EXPECT_DOUBLE_EQ(lyapunov(state), base + 0.5 * 9.0 + 0.5 * h * h);
}

TEST_F(PsiTest, LyapunovUsesShiftedEnergyLevels) {
  NetworkState state(model_, 2.0);
  for (int i = 0; i < model_.num_nodes(); ++i) state.set_battery_j(i, 0.0);
  double expect = 0.0;
  for (int i = 0; i < model_.num_nodes(); ++i) {
    const double z = -model_.shift_j(i, 2.0);
    expect += 0.5 * z * z;
  }
  EXPECT_NEAR(lyapunov(state), expect, 1e-6);
}

TEST_F(PsiTest, Psi1MatchesEq35) {
  NetworkState state(model_, 1.0);
  state.set_g_queue(0, 2, 4.0);
  std::vector<ScheduledLink> sched(1);
  sched[0].tx = 0;
  sched[0].rx = 2;
  sched[0].capacity_packets = 10.0;
  // -beta * H_02 * cap = -beta * (beta*4) * 10.
  EXPECT_DOUBLE_EQ(psi1_hat(state, sched),
                   -model_.beta() * state.h(0, 2) * 10.0);
  EXPECT_LT(psi1_hat(state, sched), 0.0);
}

TEST_F(PsiTest, Psi3MatchesEq37) {
  NetworkState state(model_, 1.0);
  state.set_q(0, 0, 30.0);
  state.set_q(3, 0, 5.0);
  std::vector<RouteDecision> routes = {{0, 3, 0, 4.0}};
  EXPECT_DOUBLE_EQ(psi3_hat(state, routes), (-30.0 + 5.0) * 4.0);
}

TEST_F(PsiTest, PenaltyCombinesCostAndAdmissionReward) {
  NetworkState state(model_, 2.0);
  SlotDecision d;
  d.cost = 100.0;
  d.admissions = {{0, 3.0}, {1, 1.0}};
  // V * (f - lambda * sum k) = 2 * (100 - 5 * 4).
  EXPECT_DOUBLE_EQ(penalty(state, 5.0, d), 2.0 * (100.0 - 20.0));
}

// Lemma 1, eq. (33): the realized one-slot drift plus penalty never exceeds
// B + Psi1 + Psi2 + Psi3 + Psi4 along the controller's trajectory. This is
// the inequality the entire analysis (Theorems 3-5) rests on; verifying it
// numerically ties the implementation of B (eq. (34)), the queue laws, and
// the Psi evaluators together.
class DriftBound : public ::testing::TestWithParam<double> {};

TEST_P(DriftBound, Eq33HoldsEverySlot) {
  const double V = GetParam();
  auto cfg = sim::ScenarioConfig::tiny();
  const auto model = cfg.build();
  LyapunovController controller(model, V, cfg.controller_options());
  Rng rng(31);
  const double B = model.drift_constant_B();
  for (int t = 0; t < 40; ++t) {
    const NetworkState pre = controller.state();
    const auto inputs = model.sample_inputs(t, rng);
    const SlotDecision d = controller.step(inputs);
    const NetworkState& post = controller.state();

    const double drift = lyapunov(post) - lyapunov(pre);
    const double pen = penalty(pre, cfg.lambda, d);
    const double rhs = B + psi1_hat(pre, d.schedule) +
                       psi2_hat(pre, cfg.lambda, d.admissions) +
                       psi3_hat(pre, d.routes) + psi4_hat(pre, d.energy);
    EXPECT_LE(drift + pen, rhs + 1e-6 * (1.0 + std::abs(rhs)))
        << "slot " << t << " V " << V;
  }
}

INSTANTIATE_TEST_SUITE_P(Vs, DriftBound,
                         ::testing::Values(0.0, 0.5, 2.0, 8.0, 32.0));

TEST_F(PsiTest, DriftBoundIsNotVacuous) {
  // The inequality above must bite: at least some slots should use a
  // non-trivial fraction of the B slack (otherwise the test proves
  // nothing). Track the max utilization across a run.
  auto cfg = sim::ScenarioConfig::tiny();
  const auto model = cfg.build();
  LyapunovController controller(model, 2.0, cfg.controller_options());
  Rng rng(32);
  const double B = model.drift_constant_B();
  double max_util = 0.0;
  for (int t = 0; t < 60; ++t) {
    const NetworkState pre = controller.state();
    const SlotDecision d = controller.step(model.sample_inputs(t, rng));
    const double drift = lyapunov(controller.state()) - lyapunov(pre);
    const double pen = penalty(pre, cfg.lambda, d);
    const double psis = psi1_hat(pre, d.schedule) +
                        psi2_hat(pre, cfg.lambda, d.admissions) +
                        psi3_hat(pre, d.routes) + psi4_hat(pre, d.energy);
    max_util = std::max(max_util, (drift + pen - psis) / B);
  }
  EXPECT_GT(max_util, 0.001);
  EXPECT_LE(max_util, 1.0 + 1e-9);
}

// L(Theta) and the Fig. 2 H total as sums over every ordered pair: per
// node, its q^2, then z^2, then H_ij^2 for every j != i; and G over the
// whole row-major n x n table. lyapunov() and total_virtual_queue() walk
// only the stored G > 0 entries; the sums must agree bit for bit.
double dense_lyapunov(const NetworkState& state) {
  const auto& model = state.model();
  double total = 0.0;
  for (int i = 0; i < model.num_nodes(); ++i) {
    for (int s = 0; s < model.num_sessions(); ++s) {
      const double q = state.q(i, s);
      total += q * q;
    }
    const double z = state.z(i);
    total += z * z;
    for (int j = 0; j < model.num_nodes(); ++j) {
      if (i == j) continue;
      const double h = state.h(i, j);
      total += h * h;
    }
  }
  return 0.5 * total;
}

double dense_total_virtual_queue(const NetworkState& state) {
  const int n = state.model().num_nodes();
  double total = 0.0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) total += state.g_queue(i, j);
  return total;
}

// Seeded states: controller trajectories on tiny and paper-sized models,
// compared every slot; then G, Q and batteries overwritten with
// fractional, huge and tiny values (empty rows, the last row, and no G at
// all), compared once more.
TEST(Psi, LyapunovMatchesDenseSum) {
  int compared = 0, empty_g = 0;
  const auto expect_dense = [&](const NetworkState& state, std::uint64_t k,
                                int t) {
    const double l = lyapunov(state);
    const double dense_l = dense_lyapunov(state);
    EXPECT_EQ(std::memcmp(&l, &dense_l, sizeof l), 0)
        << "instance " << k << " slot " << t;
    const double g = state.total_virtual_queue();
    const double dense_g = dense_total_virtual_queue(state);
    EXPECT_EQ(std::memcmp(&g, &dense_g, sizeof g), 0)
        << "instance " << k << " slot " << t;
    ++compared;
    empty_g += state.g_entries().empty();
  };
  for (std::uint64_t k = 0; k < 24; ++k) {
    sim::ScenarioConfig cfg =
        k % 3 == 0 ? sim::ScenarioConfig::paper() : sim::ScenarioConfig::tiny();
    cfg.seed = 40 + k;
    const NetworkModel model = cfg.build();
    const int n = model.num_nodes();
    LyapunovController controller(model, 0.5 + static_cast<double>(k % 4),
                                  cfg.controller_options());
    Rng rng(5150 + k);
    const int slots = 10 + static_cast<int>(k % 5);
    for (int t = 0; t < slots; ++t) {
      expect_dense(controller.state(), k, t);
      controller.step(model.sample_inputs(t, rng));
    }
    NetworkState state = controller.state();
    const double p = k % 6 == 5 ? 0.0 : rng.uniform(0.05, 0.6);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        const double u = rng.uniform01();
        state.set_g_queue(i, j, u >= p     ? 0.0
                                : u < 0.02 ? rng.uniform(1e150, 1e152)
                                : u < 0.04 ? rng.uniform(0.0, 1e-150)
                                           : rng.uniform(0.0, 500.0));
      }
    for (int i = 0; i < n; ++i) {
      for (int s = 0; s < model.num_sessions(); ++s)
        state.set_q(i, s,
                    rng.uniform01() < 0.5 ? 0.0 : rng.uniform(0.0, 300.0));
      state.restore_battery_level_j(
          i, rng.uniform(0.0, state.battery_capacity_j(i)));
    }
    expect_dense(state, k, slots);
  }
  EXPECT_EQ(compared, 310);  // the sum over k of slots + 1
  EXPECT_GE(empty_g, 24 + 4);  // every slot 0, and the p = 0 overwrites
}

}  // namespace
}  // namespace gc::core
