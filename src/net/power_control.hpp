// Minimal-power assignment for a set of co-band links under the physical
// interference model (constraint (24)).
//
// The paper enforces (24) inside subproblem S4; we implement the classic
// Foschini–Miljanic fixed-point iteration
//   P_l <- Gamma * (eta*W + sum_{k != l} g(tx_k, rx_l) P_k) / g(tx_l, rx_l),
// started from zero. The iteration is monotone non-decreasing, so it
// converges to the component-wise minimal feasible power vector iff one
// exists; if any component needs more than the transmitter's maximum power,
// the set is infeasible and the caller deschedules a link.
#pragma once

#include <span>
#include <vector>

#include "net/capacity.hpp"
#include "net/topology.hpp"

namespace gc::net {

struct PowerControlOptions {
  int max_iterations = 500;
  double convergence_tol = 1e-9;  // relative change per component
};

struct PowerControlResult {
  bool feasible = false;
  // Minimal powers (W), aligned with the input links; meaningful only when
  // feasible.
  std::vector<double> powers_w;
  int iterations = 0;
  // When infeasible: index of a link whose power limit was exceeded (a
  // sensible victim for descheduling); -1 otherwise.
  int violating_link = -1;
};

struct CoBandLink {
  int tx = -1;
  int rx = -1;
  double max_power_w = 0.0;
};

// `gain` is the links' band_gain_table (net/capacity.hpp):
// gain[l * K + k] = g(tx_k, rx_l) for K links.
PowerControlResult solve_min_powers(std::span<const double> gain,
                                    std::span<const CoBandLink> links,
                                    double bandwidth_hz,
                                    const RadioParams& radio,
                                    const PowerControlOptions& opt = {});

// Tabulates the gains from `topo`, then solves as above.
PowerControlResult solve_min_powers(const Topology& topo,
                                    std::span<const CoBandLink> links,
                                    double bandwidth_hz,
                                    const RadioParams& radio,
                                    const PowerControlOptions& opt = {});

}  // namespace gc::net
