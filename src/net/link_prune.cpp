#include "net/link_prune.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

namespace gc::net {

LinkPruneMap::LinkPruneMap(const Topology& topo, const Spectrum& spectrum,
                           const RadioParams& radio,
                           const std::vector<double>& max_tx_power_w)
    : n_(topo.num_nodes()), built_version_(topo.version()) {
  GC_CHECK_MSG(static_cast<int>(max_tx_power_w.size()) == n_,
               "one max transmit power per node");
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

  // The test p_max * g >= need with g = C * max(d, d_min)^-gamma is, in
  // real arithmetic, s <= T on s = max(d^2, d_min^2) with
  // T = (p_max * C / need)^(2/gamma). T depends on the transmitter class
  // (p_max, mask) and the receiver mask, so it is tabulated per class. Pairs
  // within a 1e-9 relative band of T, far wider than the few ulps either
  // side rounds by, take the exact test; so does every receiver of a class
  // whose T is not finite and positive (p_max = 0, need = 0, no shared
  // band). docs/ALGORITHM.md "Why the distance screen is exact".
  const auto& prop = topo.propagation();
  const double s_floor = prop.min_distance_m * prop.min_distance_m;
  constexpr double kBand = 1e-9;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::map<std::pair<double, int>, std::size_t> class_id;
  std::vector<double> keep_below, drop_above;  // per class x receiver mask
  const auto pos = topo.positions();
  std::vector<int> row(static_cast<std::size_t>(n_));
  for (int tx = 0; tx < n_; ++tx) {
    const double p_max = max_tx_power_w[tx];
    const double* need = &min_need[static_cast<std::size_t>(mask_id[tx]) * k];
    const auto [it, added] =
        class_id.try_emplace({p_max, mask_id[tx]}, class_id.size());
    if (added) {
      for (std::size_t b = 0; b < k; ++b) {
        const double t = std::pow(p_max * prop.antenna_constant / need[b],
                                  2.0 / prop.path_loss_exponent);
        const bool screen = std::isfinite(t) && t > 0.0;
        keep_below.push_back(screen ? t * (1.0 - kBand) : -kInf);
        drop_above.push_back(screen ? t * (1.0 + kBand) : kInf);
      }
    }
    const double* lo = &keep_below[it->second * k];
    const double* hi = &drop_above[it->second * k];
    const Vec2 a = pos[tx];
    // About half the pairs survive at city scale, so the verdict is
    // computed without branches (bitwise, not short-circuit, operators):
    // every receiver is written and the count advances by the verdict.
    // Only the rare pair inside the band branches, to the exact test.
    std::size_t count = 0;
    for (int rx = 0; rx < n_; ++rx) {
      const double dx = a.x - pos[rx].x;
      const double dy = a.y - pos[rx].y;
      const double sq = std::max(dx * dx + dy * dy, s_floor);
      const int b = mask_id[rx];
      const bool other = rx != tx;
      bool keep = (sq < lo[b]) & other;
      if (!(sq < lo[b]) & !(sq > hi[b]) & other)
        keep = p_max * topo.gain(tx, rx) >= need[b];
      row[count] = rx;
      count += static_cast<std::size_t>(keep);
    }
    out_[tx].assign(row.begin(), row.begin() + static_cast<long>(count));
    kept_ += static_cast<std::int64_t>(count);
  }
}

}  // namespace gc::net
