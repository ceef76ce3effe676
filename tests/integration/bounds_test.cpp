// Theorems 4 and 5: the online algorithm's time-averaged cost upper-bounds
// psi*_P1, and psi*_P3bar - B/V lower-bounds it. We verify the orderings
// the theory demands on a common sample path.
#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "core/lower_bound.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace gc::sim {
namespace {

struct BoundPair {
  double upper;        // psi_P3 (our algorithm's average cost)
  double lower;        // psi*_P3bar - B/V
  double relaxed_avg;  // psi*_P3bar before subtracting the gap
};

BoundPair run_bounds(const ScenarioConfig& cfg, double V, int slots) {
  const auto model = cfg.build();
  core::LyapunovController controller(model, V, cfg.controller_options());
  core::LowerBoundSolver lb(model, V, cfg.lambda);
  Rng r1(21), r2(21);
  TimeAverage upper;
  for (int t = 0; t < slots; ++t) {
    upper.add(controller.step(model.sample_inputs(t, r1)).cost);
    lb.step(model.sample_inputs(t, r2));
  }
  return {upper.average(), lb.lower_bound(), lb.average_cost()};
}

TEST(Bounds, LowerNeverExceedsUpper) {
  for (double v : {0.5, 2.0, 8.0}) {
    const auto b = run_bounds(ScenarioConfig::tiny(), v, 30);
    EXPECT_LE(b.lower, b.upper + 1e-9) << "tiny, V = " << v;
  }
  // The paper config over the Fig. 2(a) driver's default horizon.
  for (double v : {1.0, 5.0, 10.0}) {
    const auto b = run_bounds(ScenarioConfig::paper(), v, 40);
    EXPECT_LE(b.lower, b.upper + 1e-9) << "paper, V = " << v;
  }
}

TEST(Bounds, GapShrinksWithV) {
  // Theorem 5's B/V gap: larger V tightens the certified gap.
  const auto low = run_bounds(ScenarioConfig::tiny(), 1.0, 30);
  const auto high = run_bounds(ScenarioConfig::tiny(), 16.0, 30);
  EXPECT_LT(high.upper - high.lower, low.upper - low.lower);
}

TEST(Bounds, RelaxedAverageItselfBelowUpperPlusSlack) {
  // Even before subtracting B/V, the relaxed play (fractional scheduling,
  // free source splitting, no interference) should not cost more than the
  // real controller on the same path, modulo sample noise.
  const auto b = run_bounds(ScenarioConfig::tiny(), 2.0, 40);
  EXPECT_LE(b.relaxed_avg, b.upper * 1.25 + 1e-9);
}

TEST(Bounds, SteadyStateCostDoesNotIncreaseWithV) {
  // Larger V weights the energy penalty more heavily, so the *steady-state*
  // cost must not increase (Fig. 2(a)'s upper curve trends down / flat).
  // The comparison deliberately skips the start-up transient: a larger V
  // raises the battery target V*(gamma_max - f'), and filling the batteries
  // costs real grid energy during the first tens of slots.
  auto tail_cost = [](double V) {
    const auto cfg = ScenarioConfig::tiny();
    const auto model = cfg.build();
    core::LyapunovController controller(model, V, cfg.controller_options());
    Rng rng(21);
    TimeAverage tail;
    for (int t = 0; t < 150; ++t) {
      const double c = controller.step(model.sample_inputs(t, rng)).cost;
      if (t >= 100) tail.add(c);
    }
    return tail.average();
  };
  const double low_v = tail_cost(0.25);
  const double high_v = tail_cost(8.0);
  EXPECT_LE(high_v, low_v * 1.10 + 1e-9);
}

}  // namespace
}  // namespace gc::sim
