#include "core/lower_bound.hpp"

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "sim/scenario.hpp"

namespace gc::core {
namespace {

class LowerBoundTest : public ::testing::Test {
 protected:
  LowerBoundTest() : model_(sim::ScenarioConfig::tiny().build()) {}
  NetworkModel model_;
};

TEST_F(LowerBoundTest, StepReturnsNonNegativeCost) {
  LowerBoundSolver lb(model_, 2.0, sim::ScenarioConfig::tiny().lambda);
  Rng rng(3);
  for (int t = 0; t < 5; ++t) {
    const double c = lb.step(model_.sample_inputs(t, rng));
    EXPECT_GE(c, 0.0);
  }
  EXPECT_EQ(lb.slots(), 5);
  EXPECT_GE(lb.average_cost(), 0.0);
}

TEST_F(LowerBoundTest, LowerBoundIsAverageMinusBOverV) {
  const double V = 4.0;
  LowerBoundSolver lb(model_, V, 1.0);
  Rng rng(4);
  for (int t = 0; t < 4; ++t) lb.step(model_.sample_inputs(t, rng));
  EXPECT_EQ(lb.lower_bound(),
            lb.average_cost() - model_.drift_constant_B() / V);
}

TEST_F(LowerBoundTest, RejectsNonPositiveVAtConstruction) {
  EXPECT_THROW(LowerBoundSolver(model_, 0.0, 1.0), CheckError);
  EXPECT_THROW(LowerBoundSolver(model_, -1.0, 1.0), CheckError);
  EXPECT_THROW(LowerBoundSolver(model_, 2.0, -1.0), CheckError);
}

TEST_F(LowerBoundTest, FractionalQueuesStayFiniteAndNonNegative) {
  LowerBoundSolver lb(model_, 2.0, sim::ScenarioConfig::tiny().lambda);
  Rng rng(5);
  for (int t = 0; t < 20; ++t) lb.step(model_.sample_inputs(t, rng));
  for (int i = 0; i < model_.num_nodes(); ++i) {
    EXPECT_GE(lb.battery_j(i), 0.0);
    EXPECT_LE(lb.battery_j(i), model_.node(i).battery.capacity_j + 1e-6);
    for (int s = 0; s < model_.num_sessions(); ++s) {
      EXPECT_GE(lb.q(i, s), 0.0);
      EXPECT_LT(lb.q(i, s), 1e7);
    }
  }
}

TEST_F(LowerBoundTest, RelaxedCostBelowControllerCostSamePath) {
  // The relaxed per-slot optimum can admit less / schedule fractionally, so
  // over the same sample path its average f(P) should not exceed the online
  // controller's by more than noise. (The formal statement compares against
  // psi*_P1 via B/V; this is the empirical sanity check.)
  const double V = 2.0;
  auto cfg = sim::ScenarioConfig::tiny();
  LyapunovController up(model_, V, cfg.controller_options());
  LowerBoundSolver lb(model_, V, cfg.lambda);
  Rng r1(6), r2(6);
  TimeAverage up_avg;
  for (int t = 0; t < 25; ++t) {
    up_avg.add(up.step(model_.sample_inputs(t, r1)).cost);
    lb.step(model_.sample_inputs(t, r2));
  }
  EXPECT_LE(lb.lower_bound(), up_avg.average() + 1e-9);
  EXPECT_LE(lb.average_cost(), up_avg.average() * 1.5 + 1e-9);
}

TEST_F(LowerBoundTest, DeterministicAcrossRuns) {
  LowerBoundSolver a(model_, 2.0, 1.0), b(model_, 2.0, 1.0);
  Rng r1(8), r2(8);
  for (int t = 0; t < 4; ++t)
    EXPECT_DOUBLE_EQ(a.step(model_.sample_inputs(t, r1)),
                     b.step(model_.sample_inputs(t, r2)));
}

}  // namespace
}  // namespace gc::core
