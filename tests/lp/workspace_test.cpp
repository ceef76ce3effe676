// lp::Workspace: buffer reuse across solves (see Workspace in
// lp/simplex.hpp). The hot consumers are the S3/S4 LP solvers, but this
// test exercises the contract directly on hand-built LPs.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "lp/simplex.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace gc::lp {
namespace {

// A packing LP shaped like the S1 relaxation: n variables in [0, 1],
// maximize sum w_j x_j subject to a few <= rows.
Model packing_lp(int n, std::uint64_t seed) {
  Model m;
  Rng rng(seed);
  for (int j = 0; j < n; ++j)
    m.add_variable(0.0, 1.0, -(1.0 + rng.uniform01()));
  for (int r = 0; r < n / 4; ++r) {
    const int row = m.add_row(Sense::LessEqual, 2.0);
    for (int j = 0; j < n; ++j)
      if (rng.uniform01() < 0.3) m.set_coeff(row, j, 1.0);
  }
  return m;
}

// Solving through a reused workspace is indistinguishable from fresh solves — across a sequence of different
// models.
TEST(Workspace, ReusedWorkspaceMatchesFreshSolves) {
  Workspace ws;
  for (int n : {24, 8, 40, 16}) {
    const Model m = packing_lp(n, 1000 + static_cast<std::uint64_t>(n));
    const Solution with_ws = solve(m, {}, ws);
    const Solution fresh = solve(m);
    ASSERT_EQ(with_ws.status, Status::Optimal);
    ASSERT_EQ(fresh.status, Status::Optimal);
    EXPECT_EQ(with_ws.objective, fresh.objective);
    EXPECT_EQ(with_ws.iterations, fresh.iterations);
    ASSERT_EQ(with_ws.x.size(), fresh.x.size());
    for (std::size_t j = 0; j < fresh.x.size(); ++j)
      EXPECT_EQ(with_ws.x[j], fresh.x[j]) << "x[" << j << "]";
  }
}

}  // namespace
}  // namespace gc::lp
