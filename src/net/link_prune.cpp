#include "net/link_prune.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gc::net {

LinkPruneMap::LinkPruneMap(const Topology& topo, const Spectrum& spectrum,
                           const RadioParams& radio,
                           const std::vector<double>& max_tx_power_w)
    : n_(topo.num_nodes()), built_version_(topo.version()) {
  GC_CHECK_MSG(static_cast<int>(max_tx_power_w.size()) == n_,
               "one max transmit power per node");
  reach_.assign(static_cast<std::size_t>(n_) * n_, 0);
  out_.assign(static_cast<std::size_t>(n_), {});

  // Per band, the smallest received power that could ever meet the SINR
  // threshold: noise only (interference can only add) over the band's
  // minimum bandwidth (band 0 is the fixed cellular band; random bands
  // realize in [lo, hi], so lo is their floor).
  const auto& sc = spectrum.config();
  const int bands = spectrum.num_bands();
  std::vector<double> need_w(static_cast<std::size_t>(bands), 0.0);
  for (int m = 0; m < bands; ++m) {
    const double w_min =
        m == 0 ? sc.cellular_bandwidth_hz : sc.random_bandwidth_lo_hz;
    need_w[m] = radio.sinr_threshold * radio.noise_psd_w_per_hz * w_min;
  }

  // A pair passes iff received_max >= need_w[m] for some band m both ends
  // have, i.e. iff received_max >= the minimum need over the shared bands.
  // That minimum depends only on the two masks, so it is tabulated once
  // per pair of distinct masks (+inf when no band is shared; p_max and the
  // gains are finite, so +inf never passes).
  std::vector<std::uint32_t> masks;
  std::vector<int> mask_id(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    GC_CHECK_MSG(std::isfinite(max_tx_power_w[i]),
                 "max transmit power of node " << i << " is not finite");
    const std::uint32_t mask = spectrum.availability_mask(i);
    const auto it = std::find(masks.begin(), masks.end(), mask);
    mask_id[i] = static_cast<int>(it - masks.begin());
    if (it == masks.end()) masks.push_back(mask);
  }
  const std::size_t k = masks.size();
  std::vector<double> min_need(k * k,
                               std::numeric_limits<double>::infinity());
  for (std::size_t a = 0; a < k; ++a)
    for (std::size_t b = 0; b < k; ++b)
      for (int m = 0; m < bands; ++m)
        if ((masks[a] & masks[b]) >> m & 1u)
          min_need[a * k + b] = std::min(min_need[a * k + b], need_w[m]);

  for (int tx = 0; tx < n_; ++tx) {
    const double p_max = max_tx_power_w[tx];
    const double* gain = topo.gain_row(tx);
    const double* need = &min_need[static_cast<std::size_t>(mask_id[tx]) * k];
    for (int rx = 0; rx < n_; ++rx) {
      if (rx == tx || !(p_max * gain[rx] >= need[mask_id[rx]])) continue;
      reach_[static_cast<std::size_t>(tx) * n_ + rx] = 1;
      out_[tx].push_back(rx);
      ++kept_;
    }
  }
}

}  // namespace gc::net
