#include "net/topology.hpp"

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
  // g is symmetric (hypot of the negated differences is bit-equal), so
  // each unordered pair is computed once and mirrored, as set_position
  // does.
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double d = std::max(gc::net::distance(pos_[i], pos_[j]),
                                prop_.min_distance_m);
      const double g =
          prop_.antenna_constant * std::pow(d, -prop_.path_loss_exponent);
      gain_[static_cast<std::size_t>(i) * n + j] = g;
      gain_[static_cast<std::size_t>(j) * n + i] = g;
    }
  }
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

void Topology::set_position(int node, const Vec2& position) {
  check(node);
  ++version_;
  pos_[node] = position;
  const int n = num_nodes();
  for (int other = 0; other < n; ++other) {
    if (other == node) continue;
    const double d = std::max(gc::net::distance(pos_[node], pos_[other]),
                              prop_.min_distance_m);
    const double g =
        prop_.antenna_constant * std::pow(d, -prop_.path_loss_exponent);
    gain_[static_cast<std::size_t>(node) * n + other] = g;
    gain_[static_cast<std::size_t>(other) * n + node] = g;
  }
}

}  // namespace gc::net
