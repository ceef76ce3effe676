// Physical-model link capacity of Section II-B.
//
// A transmission succeeds iff its SINR clears the threshold Gamma, in which
// case the link carries a fixed spectral efficiency (eq. (1)):
//   c_ij^m(t) = W_m(t) * log2(1 + Gamma)   [bits/s]   if SINR >= Gamma,
//               0                                      otherwise.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "util/check.hpp"

namespace gc::net {

struct RadioParams {
  double sinr_threshold = 1.0;        // Gamma
  double noise_psd_w_per_hz = 1e-20;  // eta (same at all receivers, Sec. VI)
};

// Nominal capacity in bits/s when the SINR threshold is met (eq. (1)).
double nominal_capacity_bps(double bandwidth_hz, double sinr_threshold);

// An active transmission on one band: tx sends to rx at `power_w`.
struct Transmission {
  int tx = -1;
  int rx = -1;
  double power_w = 0.0;
};

// Gains among one band's K links (anything with .tx and .rx):
// table[l * K + k] = g(tx_k, rx_l), the direct gain g(tx_l, rx_l) on the
// diagonal. A pair with tx_k == rx_l has no gain and holds NaN; the
// solvers reject such a set before they would read it. Power control and
// SINR checks reuse one table across retries instead of recomputing K^2
// gains from positions.
template <class Links>
std::vector<double> band_gain_table(const Topology& topo, const Links& links) {
  const std::size_t n = links.size();
  std::vector<double> table(n * n, std::numeric_limits<double>::quiet_NaN());
  for (std::size_t l = 0; l < n; ++l)
    for (std::size_t k = 0; k < n; ++k)
      if (links[k].tx != links[l].rx)
        table[l * n + k] = topo.gain(links[k].tx, links[l].rx);
  return table;
}

// SINR of transmissions[which] given every other entry as interference
// (the denominator of the expression below eq. (1)); `gain` is the
// transmissions' band_gain_table.
double sinr(std::span<const double> gain,
            std::span<const Transmission> transmissions, std::size_t which,
            double bandwidth_hz, const RadioParams& radio);
// Tabulates the gains from `topo`, then evaluates as above.
double sinr(const Topology& topo, std::span<const Transmission> transmissions,
            std::size_t which, double bandwidth_hz, const RadioParams& radio);

}  // namespace gc::net
