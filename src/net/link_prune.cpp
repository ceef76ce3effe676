#include "net/link_prune.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "obs/timer.hpp"

namespace gc::net {

LinkPruneMap::LinkPruneMap(const Topology& topo, const Spectrum& spectrum,
                           const RadioParams& radio,
                           const std::vector<double>& max_tx_power_w)
    : topo_(&topo),
      n_(topo.num_nodes()),
      version_(topo.version()),
      p_max_(max_tx_power_w),
      mask_id_(static_cast<std::size_t>(n_)),
      class_(static_cast<std::size_t>(n_)),
      rows_(static_cast<std::size_t>(n_)),
      row_epoch_(static_cast<std::size_t>(n_), 0),
      scratch_(static_cast<std::size_t>(n_)) {
  GC_CHECK_MSG(static_cast<int>(max_tx_power_w.size()) == n_,
               "one max transmit power per node");

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
  for (int i = 0; i < n_; ++i) {
    GC_CHECK_MSG(std::isfinite(max_tx_power_w[i]),
                 "max transmit power of node " << i << " is not finite");
    const std::uint32_t mask = spectrum.availability_mask(i);
    const auto it = std::find(masks.begin(), masks.end(), mask);
    mask_id_[i] = static_cast<int>(it - masks.begin());
    if (it == masks.end()) masks.push_back(mask);
  }
  const std::size_t k = masks_ = masks.size();
  min_need_.assign(k * k, std::numeric_limits<double>::infinity());
  for (std::size_t a = 0; a < k; ++a)
    for (std::size_t b = 0; b < k; ++b)
      for (int m = 0; m < bands; ++m)
        if ((masks[a] & masks[b]) >> m & 1u)
          min_need_[a * k + b] = std::min(min_need_[a * k + b], need_w[m]);

  // The test p_max * g >= need with g = C * max(d, d_min)^-gamma is, in
  // real arithmetic, s <= T on s = max(d^2, d_min^2) with
  // T = (p_max * C / need)^(2/gamma). T depends on the transmitter class
  // (p_max, mask) and the receiver mask, so it is tabulated per class. Pairs
  // within a 1e-9 relative band of T, far wider than the few ulps either
  // side rounds by, take the exact test; so does every receiver of a class
  // whose T is not finite and positive (p_max = 0, need = 0, no shared
  // band). docs/ALGORITHM.md "Why the distance screen is exact".
  const auto& prop = topo.propagation();
  s_floor_ = prop.min_distance_m * prop.min_distance_m;
  constexpr double kBand = 1e-9;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::map<std::pair<double, int>, std::size_t> class_id;
  for (int tx = 0; tx < n_; ++tx) {
    const double p_max = p_max_[tx];
    const auto [it, added] =
        class_id.try_emplace({p_max, mask_id_[tx]}, class_id.size());
    class_[tx] = it->second;
    if (!added) continue;
    const double* need = &min_need_[static_cast<std::size_t>(mask_id_[tx]) * k];
    for (std::size_t b = 0; b < k; ++b) {
      const double t = std::pow(p_max * prop.antenna_constant / need[b],
                                2.0 / prop.path_loss_exponent);
      const bool screen = std::isfinite(t) && t > 0.0;
      keep_below_.push_back(screen ? t * (1.0 - kBand) : -kInf);
      drop_above_.push_back(screen ? t * (1.0 + kBand) : kInf);
    }
  }
}

void LinkPruneMap::sync(const Topology& topo) {
  GC_CHECK_MSG(topo.num_nodes() == n_,
               "link-prune map synced to a topology of another size");
  topo_ = &topo;
  if (topo.version() == version_) return;
  version_ = topo.version();
  ++epoch_;  // every row_epoch_ is now stale; the rows keep their capacity
}

void LinkPruneMap::check_synced() const {
  GC_CHECK_MSG(topo_->version() == version_,
               "link-prune map read after nodes moved without sync()");
}

bool LinkPruneMap::in_range(int tx, int rx) const {
  check_synced();
  if (tx == rx) return false;
  const auto pos = topo_->positions();
  const double dx = pos[tx].x - pos[rx].x;
  const double dy = pos[tx].y - pos[rx].y;
  const double sq = std::max(dx * dx + dy * dy, s_floor_);
  const std::size_t b = static_cast<std::size_t>(mask_id_[rx]);
  const std::size_t c = class_[tx] * masks_ + b;
  if (sq < keep_below_[c]) return true;
  if (sq > drop_above_[c]) return false;
  return p_max_[tx] * topo_->gain(tx, rx) >=
         min_need_[static_cast<std::size_t>(mask_id_[tx]) * masks_ + b];
}

std::size_t LinkPruneMap::screen_row(int tx, int* out) const {
  const double p_max = p_max_[tx];
  const double* need =
      &min_need_[static_cast<std::size_t>(mask_id_[tx]) * masks_];
  const double* lo = &keep_below_[class_[tx] * masks_];
  const double* hi = &drop_above_[class_[tx] * masks_];
  const auto pos = topo_->positions();
  const Vec2 a = pos[tx];
  // About half the pairs survive at city scale, so the verdict is
  // computed without branches (bitwise, not short-circuit, operators):
  // every receiver is written and the count advances by the verdict.
  // Only the rare pair inside the band branches, to the exact test.
  std::size_t count = 0;
  for (int rx = 0; rx < n_; ++rx) {
    const double dx = a.x - pos[rx].x;
    const double dy = a.y - pos[rx].y;
    const double sq = std::max(dx * dx + dy * dy, s_floor_);
    const int b = mask_id_[rx];
    const bool other = rx != tx;
    bool keep = (sq < lo[b]) & other;
    if (!(sq < lo[b]) & !(sq > hi[b]) & other)
      keep = p_max * topo_->gain(tx, rx) >= need[b];
    out[count] = rx;
    count += static_cast<std::size_t>(keep);
  }
  return count;
}

const std::vector<int>& LinkPruneMap::out_neighbors(int tx) const {
  check_synced();
  std::vector<int>& row = rows_[static_cast<std::size_t>(tx)];
  std::uint64_t& epoch = row_epoch_[static_cast<std::size_t>(tx)];
  if (epoch != epoch_) {
    obs::Span span("net.prune_build", tx, n_);
    const std::size_t count = screen_row(tx, scratch_.data());
    row.assign(scratch_.begin(), scratch_.begin() + static_cast<long>(count));
    epoch = epoch_;
  }
  return row;
}

std::int64_t LinkPruneMap::kept_links() const {
  check_synced();
  std::int64_t kept = 0;
  for (int tx = 0; tx < n_; ++tx)
    kept += static_cast<std::int64_t>(screen_row(tx, scratch_.data()));
  return kept;
}

}  // namespace gc::net
