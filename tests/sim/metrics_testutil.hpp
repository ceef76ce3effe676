// Bit-exact Metrics comparison shared by the determinism and
// checkpoint/resume tests. "Bit-identical" is literal: every double is
// compared by its IEEE-754 bit pattern (so -0.0 != 0.0 and any NaN
// difference fails loudly), because the resume guarantee in
// docs/ROBUSTNESS.md is bit-level, not epsilon-level. Metrics holds no
// wall-clock time, so nothing needs excluding. Also the two
// checkpoint-generation helpers those tests share.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"

namespace gc::sim {

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

inline void expect_series_bit_identical(const std::vector<double>& a,
                                        const std::vector<double>& b,
                                        const char* name) {
  ASSERT_EQ(a.size(), b.size()) << name << " lengths differ";
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(bits(a[i]), bits(b[i]))
        << name << " diverges at slot " << i << ": " << a[i] << " vs " << b[i];
}

inline void expect_metrics_bit_identical(const Metrics& a, const Metrics& b) {
  ASSERT_EQ(a.slots, b.slots);
  expect_series_bit_identical(a.cost, b.cost, "cost");
  expect_series_bit_identical(a.grid_j, b.grid_j, "grid_j");
  expect_series_bit_identical(a.q_bs, b.q_bs, "q_bs");
  expect_series_bit_identical(a.q_users, b.q_users, "q_users");
  expect_series_bit_identical(a.battery_bs_j, b.battery_bs_j, "battery_bs_j");
  expect_series_bit_identical(a.battery_users_j, b.battery_users_j,
                              "battery_users_j");

  EXPECT_EQ(a.cost_avg.slots(), b.cost_avg.slots());
  EXPECT_EQ(bits(a.cost_avg.sum()), bits(b.cost_avg.sum()));
  EXPECT_EQ(bits(a.q_total_stability.abs_sum()),
            bits(b.q_total_stability.abs_sum()));
  EXPECT_EQ(bits(a.q_total_stability.sup_partial_average()),
            bits(b.q_total_stability.sup_partial_average()));
  expect_series_bit_identical(a.q_total_stability.partial_averages(),
                              b.q_total_stability.partial_averages(),
                              "q_total_stability.partial_averages");
  EXPECT_EQ(bits(a.h_total_stability.abs_sum()),
            bits(b.h_total_stability.abs_sum()));
  EXPECT_EQ(bits(a.h_total_stability.sup_partial_average()),
            bits(b.h_total_stability.sup_partial_average()));
  expect_series_bit_identical(a.h_total_stability.partial_averages(),
                              b.h_total_stability.partial_averages(),
                              "h_total_stability.partial_averages");

  EXPECT_EQ(bits(a.total_demand_shortfall), bits(b.total_demand_shortfall));
  EXPECT_EQ(bits(a.total_unserved_energy_j), bits(b.total_unserved_energy_j));
  EXPECT_EQ(bits(a.total_curtailed_j), bits(b.total_curtailed_j));
  EXPECT_EQ(bits(a.total_delivered_packets), bits(b.total_delivered_packets));
  EXPECT_EQ(bits(a.total_admitted_packets), bits(b.total_admitted_packets));
  EXPECT_EQ(bits(a.total_offered_packets), bits(b.total_offered_packets));
}

// The newest generation a run checkpointing to `base` left that loads;
// throws CheckpointError when there is none.
inline Checkpoint newest_checkpoint(const std::string& base) {
  auto sel = load_newest_valid(base);
  if (!sel.has_value())
    throw CheckpointError("no checkpoint found at " + base);
  return std::move(sel->checkpoint);
}

inline void remove_generations(const std::string& base) {
  for (const GenerationInfo& g : list_generations(base))
    std::remove(g.file.c_str());
}

}  // namespace gc::sim
