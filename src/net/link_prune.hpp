// Exact radio-range link pruning.
//
// The controller's candidate scans are O(n^2) over ordered node pairs, and
// on city-scale topologies almost every pair is out of radio range: a user
// with a 1 W power cap simply cannot close the SINR threshold against a
// receiver kilometers away. This map precomputes, per transmitter, the
// ascending list of receivers that at least one shared band could close in
// the most favorable case — maximum transmit power, zero interference, the
// band's minimum bandwidth:
//
//   p_max(tx) * g(tx, rx) >= Gamma * N0 * W_min(m)
//
// Interference and wider realized bandwidths only RAISE the power a link
// needs, so a pair failing this test is infeasible under every slot
// realization and every power-control outcome, for both PHY policies:
// MinPowerFixedRate's Foschini–Miljanic iteration can never satisfy it
// (its very first iterate already exceeds p_max), and MaxPowerAdaptiveRate
// drops it below threshold at p_max outright. A pruned link therefore
// carries zero rate always — removing it from the scans is exact, not
// approximate (docs/ALGORITHM.md "Why range pruning is exact").
//
// The build decides most pairs on squared distance alone: with
// g = C * max(d, d_min)^-gamma the test is d^2 <= (p_max * C / need)^(2/gamma),
// and only pairs within a 1e-9 relative band of that threshold evaluate the
// gain (docs/ALGORITHM.md "Why the distance screen is exact").
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/capacity.hpp"
#include "net/spectrum.hpp"
#include "net/topology.hpp"

namespace gc::net {

class LinkPruneMap {
 public:
  // `max_tx_power_w[i]` = P_max of node i. The map snapshots the
  // topology's version() so owners can detect staleness after mobility.
  LinkPruneMap(const Topology& topo, const Spectrum& spectrum,
               const RadioParams& radio,
               const std::vector<double>& max_tx_power_w);

  // Binary search over out_neighbors(tx); the scans use the lists.
  bool in_range(int tx, int rx) const {
    return std::binary_search(out_[tx].begin(), out_[tx].end(), rx);
  }

  // Receivers tx can reach, ascending — the same order the dense O(n^2)
  // scans visit, so swapping a scan over to the list is order-preserving.
  const std::vector<int>& out_neighbors(int tx) const { return out_[tx]; }

  // Ordered pairs (tx != rx) the dense scan would visit vs how many
  // survive the range test; exported into profile artifacts so speedups
  // stay attributable (tools/perf_report).
  std::int64_t total_links() const {
    return static_cast<std::int64_t>(n_) * (n_ - 1);
  }
  std::int64_t kept_links() const { return kept_; }
  std::int64_t pruned_links() const { return total_links() - kept_; }

  std::uint64_t topology_version() const { return built_version_; }

 private:
  int n_ = 0;
  std::int64_t kept_ = 0;
  std::uint64_t built_version_ = 0;
  std::vector<std::vector<int>> out_;
};

}  // namespace gc::net
