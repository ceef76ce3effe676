#include "net/power_control.hpp"

#include <algorithm>
#include <cmath>

namespace gc::net {

PowerControlResult solve_min_powers(std::span<const double> gain,
                                    std::span<const CoBandLink> links,
                                    double bandwidth_hz,
                                    const RadioParams& radio,
                                    const PowerControlOptions& opt) {
  PowerControlResult result;
  const std::size_t n = links.size();
  GC_CHECK(gain.size() == n * n);
  result.powers_w.assign(n, 0.0);
  if (n == 0) {
    result.feasible = true;
    return result;
  }
  for (const auto& l : links) {
    GC_CHECK(l.max_power_w > 0.0);
    // k == l is the link's own tx != rx.
    for (const auto& k : links)
      GC_CHECK_MSG(k.tx != l.rx, "node " << l.rx << " receives while "
                                          << "transmitting on the band");
  }

  const double gamma = radio.sinr_threshold;
  const double noise = radio.noise_psd_w_per_hz * bandwidth_hz;
  std::vector<double> next(n, 0.0);

  for (int it = 1; it <= opt.max_iterations; ++it) {
    result.iterations = it;
    double max_rel_change = 0.0;
    for (std::size_t l = 0; l < n; ++l) {
      double interference = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        if (k == l) continue;
        interference += gain[l * n + k] * result.powers_w[k];
      }
      const double p = gamma * (noise + interference) / gain[l * n + l];
      next[l] = p;
      if (p > links[l].max_power_w) {
        // Monotonicity from the zero start means the minimal solution (if
        // any) is component-wise >= the current iterate, so exceeding the
        // cap is a proof of infeasibility.
        result.feasible = false;
        result.violating_link = static_cast<int>(l);
        return result;
      }
      const double denom = std::max(result.powers_w[l], 1e-30);
      max_rel_change = std::max(max_rel_change, std::abs(p - result.powers_w[l]) / denom);
    }
    result.powers_w = next;
    if (max_rel_change <= opt.convergence_tol) {
      result.feasible = true;
      return result;
    }
  }

  // No convergence within budget: the spectral radius is at (or extremely
  // close to) 1 — treat as infeasible and blame the link with the highest
  // power demand relative to its cap.
  result.feasible = false;
  double worst = -1.0;
  for (std::size_t l = 0; l < n; ++l) {
    const double frac = result.powers_w[l] / links[l].max_power_w;
    if (frac > worst) {
      worst = frac;
      result.violating_link = static_cast<int>(l);
    }
  }
  return result;
}

PowerControlResult solve_min_powers(const Topology& topo,
                                    std::span<const CoBandLink> links,
                                    double bandwidth_hz,
                                    const RadioParams& radio,
                                    const PowerControlOptions& opt) {
  const std::vector<double> gain = band_gain_table(topo, links);
  return solve_min_powers(gain, links, bandwidth_hz, radio, opt);
}

}  // namespace gc::net
