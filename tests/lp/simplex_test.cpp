#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "util/rng.hpp"

namespace gc::lp {
namespace {

// --- hand-checked problems -------------------------------------------------

TEST(Simplex, TrivialBoundsOnly) {
  // min -x, 0 <= x <= 5: x* = 5.
  Model m;
  m.add_variable(0, 5, -1.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[0], 5.0, 1e-9);
  EXPECT_NEAR(s.objective, -5.0, 1e-9);
}

TEST(Simplex, ClassicTwoVariableMax) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), obj 36.
  Model m;
  const int x = m.add_variable(0, kInf, -3.0);
  const int y = m.add_variable(0, kInf, -5.0);
  int r = m.add_row(Sense::LessEqual, 4.0);
  m.set_coeff(r, x, 1.0);
  r = m.add_row(Sense::LessEqual, 12.0);
  m.set_coeff(r, y, 2.0);
  r = m.add_row(Sense::LessEqual, 18.0);
  m.set_coeff(r, x, 3.0);
  m.set_coeff(r, y, 2.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
  EXPECT_NEAR(s.x[y], 6.0, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y = 10, x <= 4 -> (4, 6), obj 16.
  Model m;
  const int x = m.add_variable(0, 4, 1.0);
  const int y = m.add_variable(0, kInf, 2.0);
  const int r = m.add_row(Sense::Equal, 10.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, 1.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 16.0, 1e-8);
  EXPECT_NEAR(s.x[x], 4.0, 1e-8);
}

TEST(Simplex, GreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6 -> (3, 1), obj 9.
  Model m;
  const int x = m.add_variable(0, kInf, 2.0);
  const int y = m.add_variable(0, kInf, 3.0);
  int r = m.add_row(Sense::GreaterEqual, 4.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, 1.0);
  r = m.add_row(Sense::GreaterEqual, 6.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, 3.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  // x <= 1 and x >= 2 simultaneously.
  Model m;
  const int x = m.add_variable(0, kInf, 1.0);
  int r = m.add_row(Sense::LessEqual, 1.0);
  m.set_coeff(r, x, 1.0);
  r = m.add_row(Sense::GreaterEqual, 2.0);
  m.set_coeff(r, x, 1.0);
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, DetectsInfeasibleEqualitySystem) {
  Model m;
  const int x = m.add_variable(0, kInf, 0.0);
  const int y = m.add_variable(0, kInf, 0.0);
  int r = m.add_row(Sense::Equal, 1.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, 1.0);
  r = m.add_row(Sense::Equal, 3.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, 1.0);
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  // min -x, x >= 0 unbounded below.
  Model m;
  m.add_variable(0, kInf, -1.0);
  EXPECT_EQ(solve(m).status, Status::Unbounded);
}

TEST(Simplex, UnboundedOnlyAlongFeasibleRay) {
  // min -x + 1000y s.t. x - y <= 1: ray (x, y) = (1 + t, t) has objective
  // -1 - t + 1000t -> grows; but min -x - y along the same row IS unbounded.
  Model m;
  const int x = m.add_variable(0, kInf, -1.0);
  const int y = m.add_variable(0, kInf, -1.0);
  const int r = m.add_row(Sense::LessEqual, 1.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, -1.0);
  EXPECT_EQ(solve(m).status, Status::Unbounded);
}

TEST(Simplex, UpperBoundedVariablesFlip) {
  // min -x - y, x <= 3, y <= 4, x + y <= 5 -> obj -5.
  Model m;
  const int x = m.add_variable(0, 3, -1.0);
  const int y = m.add_variable(0, 4, -1.0);
  const int r = m.add_row(Sense::LessEqual, 5.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, 1.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, -5.0, 1e-8);
  EXPECT_NEAR(s.x[x] + s.x[y], 5.0, 1e-8);
}

TEST(Simplex, NonzeroLowerBounds) {
  // min x + y with x >= 2, y >= 3, x + y >= 7 -> obj 7.
  Model m;
  const int x = m.add_variable(2, kInf, 1.0);
  const int y = m.add_variable(3, kInf, 1.0);
  const int r = m.add_row(Sense::GreaterEqual, 7.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, 1.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-8);
}

TEST(Simplex, FixedVariablesStayFixed) {
  Model m;
  const int x = m.add_variable(2.5, 2.5, -100.0);  // fixed
  const int y = m.add_variable(0, kInf, 1.0);
  const int r = m.add_row(Sense::GreaterEqual, 4.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, 1.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_DOUBLE_EQ(s.x[x], 2.5);
  EXPECT_NEAR(s.x[y], 1.5, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic Beale-style degeneracy trigger.
  Model m;
  const int x1 = m.add_variable(0, kInf, -0.75);
  const int x2 = m.add_variable(0, kInf, 150.0);
  const int x3 = m.add_variable(0, kInf, -0.02);
  const int x4 = m.add_variable(0, kInf, 6.0);
  int r = m.add_row(Sense::LessEqual, 0.0);
  m.set_coeff(r, x1, 0.25);
  m.set_coeff(r, x2, -60.0);
  m.set_coeff(r, x3, -0.04);
  m.set_coeff(r, x4, 9.0);
  r = m.add_row(Sense::LessEqual, 0.0);
  m.set_coeff(r, x1, 0.5);
  m.set_coeff(r, x2, -90.0);
  m.set_coeff(r, x3, -0.02);
  m.set_coeff(r, x4, 3.0);
  r = m.add_row(Sense::LessEqual, 1.0);
  m.set_coeff(r, x3, 1.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-8);
}

TEST(Simplex, RedundantRowsHandled) {
  Model m;
  const int x = m.add_variable(0, kInf, -1.0);
  for (int i = 0; i < 4; ++i) {
    const int r = m.add_row(Sense::LessEqual, 3.0);
    m.set_coeff(r, x, 1.0);
  }
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[x], 3.0, 1e-9);
}

TEST(Simplex, ZeroRhsEqualityFeasibleAtOrigin) {
  Model m;
  const int x = m.add_variable(0, kInf, 1.0);
  const int y = m.add_variable(0, kInf, 1.0);
  const int r = m.add_row(Sense::Equal, 0.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, -1.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
}

TEST(Simplex, TransportationProblem) {
  // 2 supplies (10, 15), 3 demands (8, 7, 10); costs row-major:
  //   [4 6 8; 5 3 2]. Optimal cost 8*4 + 2*6 + 5*3 + 10*2 = 79.
  Model m;
  std::vector<int> v;
  const double cost[2][3] = {{4, 6, 8}, {5, 3, 2}};
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j)
      v.push_back(m.add_variable(0, kInf, cost[i][j]));
  const double supply[2] = {10, 15};
  for (int i = 0; i < 2; ++i) {
    const int r = m.add_row(Sense::LessEqual, supply[i]);
    for (int j = 0; j < 3; ++j) m.set_coeff(r, v[i * 3 + j], 1.0);
  }
  const double demand[3] = {8, 7, 10};
  for (int j = 0; j < 3; ++j) {
    const int r = m.add_row(Sense::Equal, demand[j]);
    for (int i = 0; i < 2; ++i) m.set_coeff(r, v[i * 3 + j], 1.0);
  }
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 79.0, 1e-7);
}

TEST(Simplex, SolutionIsPrimalFeasible) {
  Model m;
  const int x = m.add_variable(0, 9, -2.0);
  const int y = m.add_variable(1, 7, -3.0);
  int r = m.add_row(Sense::LessEqual, 10.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, 2.0);
  r = m.add_row(Sense::GreaterEqual, 2.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, -1.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_LE(m.max_violation(s.x), 1e-7);
}

// --- slack crash basis ------------------------------------------------------
//
// max 2x + y over x, y in [0, 10] with one row of each start kind:
//   x + y <= cap   slack basic (residual cap >= 0)
//   y >= -2        surplus basic after negation (residual -2 <= 0)
//   x >= 1         artificial (a >= row with a positive residual)
//   -x - y <= -2   artificial (a <= row with a negative residual)
//   x - y = 1      artificial (an equality)
// At cap = 4 the optimum is x = 2.5, y = 1.5, objective -6.5. At cap = 1.5
// the twin is infeasible: x - y = 1 and x + y >= 2 need x + y > 1.5.
Model mixed_start_lp(double cap) {
  Model m;
  const int x = m.add_variable(0.0, 10.0, -2.0);
  const int y = m.add_variable(0.0, 10.0, -1.0);
  const auto row = [&](Sense sense, double rhs, double ax, double ay) {
    const int r = m.add_row(sense, rhs);
    if (ax != 0.0) m.set_coeff(r, x, ax);
    if (ay != 0.0) m.set_coeff(r, y, ay);
  };
  row(Sense::LessEqual, cap, 1.0, 1.0);
  row(Sense::GreaterEqual, -2.0, 0.0, 1.0);
  row(Sense::GreaterEqual, 1.0, 1.0, 0.0);
  row(Sense::LessEqual, -2.0, -1.0, -1.0);
  row(Sense::Equal, 1.0, 1.0, -1.0);
  return m;
}

TEST(SlackCrash, MixedStartReachesKnownOptimum) {
  const Model m = mixed_start_lp(4.0);
  Workspace ws;
  const auto s = solve(m, {}, ws);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, -6.5, 1e-9);
  EXPECT_NEAR(s.x[0], 2.5, 1e-9);
  EXPECT_NEAR(s.x[1], 1.5, 1e-9);
  EXPECT_LE(m.max_violation(s.x), 1e-9);
  // Three rows start on artificials, so phase I runs.
  EXPECT_GT(ws.last_stats().phase1_iterations, 0);
}

TEST(SlackCrash, MixedStartInfeasibleTwin) {
  EXPECT_EQ(solve(mixed_start_lp(1.5)).status, Status::Infeasible);
}

// Only crashed rows (a slack and a negated surplus), with a nonzero lower
// bound shifting the residuals: phase I is skipped outright.
TEST(SlackCrash, AllRowsCrashSkipsPhaseOne) {
  Model m;
  const int x = m.add_variable(1.0, 6.0, -1.0);
  const int y = m.add_variable(0.0, 4.0, -1.0);
  const int cap = m.add_row(Sense::LessEqual, 5.0);  // residual 4
  m.set_coeff(cap, x, 1.0);
  m.set_coeff(cap, y, 1.0);
  const int floor = m.add_row(Sense::GreaterEqual, 0.5);  // residual -0.5
  m.set_coeff(floor, x, 1.0);
  m.set_coeff(floor, y, -1.0);
  Workspace ws;
  const auto s = solve(m, {}, ws);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, -5.0, 1e-9);
  EXPECT_LE(m.max_violation(s.x), 1e-9);
  EXPECT_EQ(ws.last_stats().phase1_iterations, 0);
  EXPECT_EQ(s.infeasibility, 0.0);
}

// --- property tests: random LPs with a KKT-certified optimum ---------------
//
// Construction: draw a random point x*, random constraint normals a_i. Make
// each row either active (b_i = a_i . x*) with a nonnegative dual, or slack
// (b_i = a_i . x* + margin). Set c = sum over active rows of lambda_i a_i
// (for <= rows, c = -sum lambda a => min c.x has optimum at x* ... we build
// rows as a.x <= b and c = -sum lambda_i a_i so that -c is in the active
// cone). Then the LP min c.x over {a.x <= b, 0 <= x <= u} has optimal value
// c.x* by LP duality, and the solver's objective must match it.
//
// The Packing instantiation draws a_i >= 0, so b >= 0 and every row is a
// packing row like the S1 relaxation's: the slack crash basis is feasible
// and the solve must run no phase I.
struct KktCase {
  int seed = 0;
  bool packing = false;
};

// Prints the seed alone, so each case keeps the name "<suite>/<seed>".
void PrintTo(const KktCase& c, std::ostream* os) { *os << c.seed; }

std::vector<KktCase> kkt_cases(bool packing) {
  std::vector<KktCase> cases;
  for (int seed = 0; seed < 60; ++seed) cases.push_back({seed, packing});
  return cases;
}

class RandomKktLp : public ::testing::TestWithParam<KktCase> {};

TEST_P(RandomKktLp, SolverMatchesCertifiedOptimum) {
  const int seed = GetParam().seed;
  const bool packing = GetParam().packing;
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const int n = static_cast<int>(rng.uniform_int(2, 7));
  const int rows = static_cast<int>(rng.uniform_int(1, 6));

  std::vector<double> xstar(n), upper(n);
  for (int j = 0; j < n; ++j) {
    upper[j] = rng.uniform(1.0, 10.0);
    xstar[j] = rng.uniform(0.0, upper[j]);
  }

  std::vector<std::vector<double>> a(rows, std::vector<double>(n));
  std::vector<double> b(rows);
  std::vector<double> lambda(rows, 0.0);
  for (int i = 0; i < rows; ++i) {
    double dot = 0.0;
    for (int j = 0; j < n; ++j) {
      a[i][j] = rng.uniform(packing ? 0.0 : -2.0, 2.0);
      dot += a[i][j] * xstar[j];
    }
    if (rng.bernoulli(0.5)) {  // active row with positive dual
      b[i] = dot;
      lambda[i] = rng.uniform(0.1, 2.0);
    } else {  // slack row
      b[i] = dot + rng.uniform(0.5, 3.0);
    }
  }

  // Gradient: c = -sum lambda_i a_i + bound multipliers. Give x* components
  // at a bound a matching sign contribution so x* satisfies KKT exactly:
  // at upper bound, c_j may be more negative; at lower bound, more positive;
  // interior components get exactly the row combination.
  std::vector<double> c(n);
  for (int j = 0; j < n; ++j) {
    double g = 0.0;
    for (int i = 0; i < rows; ++i) g -= lambda[i] * a[i][j];
    c[j] = g;
  }
  // Perturb bound-tight components in the KKT-compatible direction.
  for (int j = 0; j < n; ++j) {
    if (xstar[j] >= upper[j] - 1e-12) c[j] -= rng.uniform(0.0, 1.0);
    if (xstar[j] <= 1e-12) c[j] += rng.uniform(0.0, 1.0);
  }

  Model m;
  for (int j = 0; j < n; ++j) m.add_variable(0.0, upper[j], c[j]);
  for (int i = 0; i < rows; ++i) {
    const int r = m.add_row(Sense::LessEqual, b[i]);
    for (int j = 0; j < n; ++j) m.set_coeff(r, j, a[i][j]);
  }

  double expect = 0.0;
  for (int j = 0; j < n; ++j) expect += c[j] * xstar[j];

  Workspace ws;
  const auto s = solve(m, {}, ws);
  ASSERT_EQ(s.status, Status::Optimal) << "seed " << seed;
  EXPECT_NEAR(s.objective, expect, 1e-6 * (1.0 + std::abs(expect)))
      << "seed " << seed;
  EXPECT_LE(m.max_violation(s.x), 1e-6);
  if (packing) {
    EXPECT_EQ(ws.last_stats().phase1_iterations, 0) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKktLp,
                         ::testing::ValuesIn(kkt_cases(false)));
INSTANTIATE_TEST_SUITE_P(Packing, RandomKktLp,
                         ::testing::ValuesIn(kkt_cases(true)));

// Random feasible LPs: whatever the optimum is, the solution must satisfy
// all constraints and weakly beat a sample of random feasible points.
class RandomFeasibleLp : public ::testing::TestWithParam<int> {};

TEST_P(RandomFeasibleLp, BeatsRandomFeasiblePoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  const int n = static_cast<int>(rng.uniform_int(2, 6));
  const int rows = static_cast<int>(rng.uniform_int(1, 5));

  Model m;
  std::vector<double> upper(n);
  for (int j = 0; j < n; ++j) {
    upper[j] = rng.uniform(0.5, 5.0);
    m.add_variable(0.0, upper[j], rng.uniform(-3.0, 3.0));
  }
  std::vector<std::vector<double>> a(rows, std::vector<double>(n));
  for (int i = 0; i < rows; ++i) {
    // rhs chosen so the box center is feasible -> problem feasible.
    double center_dot = 0.0;
    for (int j = 0; j < n; ++j) {
      a[i][j] = rng.uniform(-1.0, 1.0);
      center_dot += a[i][j] * upper[j] * 0.5;
    }
    const int r = m.add_row(Sense::LessEqual, center_dot + rng.uniform(0.0, 2.0));
    for (int j = 0; j < n; ++j) m.set_coeff(r, j, a[i][j]);
  }

  const auto s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_LE(m.max_violation(s.x), 1e-6);

  // Rejection-sample feasible points; none may beat the reported optimum.
  int found = 0;
  for (int trial = 0; trial < 2000 && found < 200; ++trial) {
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[j] = rng.uniform(0.0, upper[j]);
    if (m.max_violation(x) > 0.0) continue;
    ++found;
    EXPECT_GE(m.objective_value(x), s.objective - 1e-6)
        << "seed " << GetParam();
  }
  EXPECT_GT(found, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFeasibleLp, ::testing::Range(0, 40));

}  // namespace
}  // namespace gc::lp
