#include "net/topology.hpp"

#include <algorithm>
#include <cmath>

namespace gc::net {

double distance(const Vec2& a, const Vec2& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

Topology::Topology(std::vector<Vec2> base_stations, std::vector<Vec2> users,
                   const PropagationParams& prop)
    : num_bs_(static_cast<int>(base_stations.size())), prop_(prop) {
  GC_CHECK_MSG(!base_stations.empty(), "need at least one base station");
  GC_CHECK(prop.path_loss_exponent > 0.0);
  GC_CHECK(prop.antenna_constant > 0.0);
  GC_CHECK(prop.min_distance_m > 0.0);
  pos_ = std::move(base_stations);
  pos_.insert(pos_.end(), users.begin(), users.end());

  const int n = num_nodes();
  gain_.assign(static_cast<std::size_t>(n) * n, 0.0);
  refresh_gains(0, n);
}

Topology Topology::paper_layout(int num_users, double area_m,
                                const PropagationParams& prop, Rng& rng) {
  GC_CHECK(num_users >= 0);
  GC_CHECK(area_m > 0.0);
  std::vector<Vec2> bs = {{area_m * 0.25, area_m * 0.25},
                          {area_m * 0.75, area_m * 0.25}};
  std::vector<Vec2> users;
  users.reserve(static_cast<std::size_t>(num_users));
  for (int u = 0; u < num_users; ++u)
    users.push_back(Vec2{rng.uniform(0.0, area_m), rng.uniform(0.0, area_m)});
  return Topology(std::move(bs), std::move(users), prop);
}

double Topology::distance(int i, int j) const {
  return gc::net::distance(pos_[check(i)], pos_[check(j)]);
}

double Topology::gain(int i, int j) const {
  check(i);
  check(j);
  GC_CHECK_MSG(i != j, "gain undefined for i == j");
  return gain_[static_cast<std::size_t>(i) * num_nodes() + j];
}

void Topology::set_positions(int first, std::span<const Vec2> positions) {
  const int last = first + static_cast<int>(positions.size());
  GC_CHECK_MSG(first >= 0 && first <= last && last <= num_nodes(),
               "bad node block [" << first << ", " << last << ")");
  ++version_;
  std::copy(positions.begin(), positions.end(), pos_.begin() + first);
  refresh_gains(first, last);
}

void Topology::refresh_gains(int first, int last) {
  // g is symmetric (hypot of the negated differences is bit-equal), so
  // each unordered pair is computed once and mirrored. A pair inside the
  // block is computed when its smaller endpoint is visited, after every
  // position of the block has been written.
  const int n = num_nodes();
  const auto refresh = [&](int a, int o) {
    const double d =
        std::max(gc::net::distance(pos_[a], pos_[o]), prop_.min_distance_m);
    const double g =
        prop_.antenna_constant * std::pow(d, -prop_.path_loss_exponent);
    gain_[static_cast<std::size_t>(a) * n + o] = g;
    gain_[static_cast<std::size_t>(o) * n + a] = g;
  };
  for (int a = first; a < last; ++a) {
    for (int o = 0; o < first; ++o) refresh(a, o);
    for (int o = a + 1; o < n; ++o) refresh(a, o);
  }
}

}  // namespace gc::net
