#include "net/capacity.hpp"

#include <cmath>

namespace gc::net {

double nominal_capacity_bps(double bandwidth_hz, double sinr_threshold) {
  GC_CHECK(bandwidth_hz >= 0.0);
  GC_CHECK(sinr_threshold > 0.0);
  return bandwidth_hz * std::log2(1.0 + sinr_threshold);
}

double sinr(std::span<const double> gain,
            std::span<const Transmission> transmissions, std::size_t which,
            double bandwidth_hz, const RadioParams& radio) {
  const std::size_t n = transmissions.size();
  GC_CHECK(which < n && gain.size() == n * n);
  const Transmission& t = transmissions[which];
  GC_CHECK(t.tx != t.rx);
  double interference = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (k == which) continue;
    const Transmission& other = transmissions[k];
    if (other.power_w <= 0.0) continue;
    GC_CHECK_MSG(other.tx != t.rx, "receiver also transmitting on the band");
    interference += gain[which * n + k] * other.power_w;
  }
  const double noise = radio.noise_psd_w_per_hz * bandwidth_hz;
  const double denom = noise + interference;
  GC_CHECK(denom > 0.0);
  return gain[which * n + which] * t.power_w / denom;
}

double sinr(const Topology& topo, std::span<const Transmission> transmissions,
            std::size_t which, double bandwidth_hz, const RadioParams& radio) {
  const std::vector<double> gain = band_gain_table(topo, transmissions);
  return sinr(gain, transmissions, which, bandwidth_hz, radio);
}

}  // namespace gc::net
