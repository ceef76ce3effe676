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
  const double d =
      std::max(gc::net::distance(pos_[i], pos_[j]), prop_.min_distance_m);
  return prop_.antenna_constant * std::pow(d, -prop_.path_loss_exponent);
}

void Topology::set_positions(int first, std::span<const Vec2> positions) {
  const int last = first + static_cast<int>(positions.size());
  GC_CHECK_MSG(first >= 0 && first <= last && last <= num_nodes(),
               "bad node block [" << first << ", " << last << ")");
  ++version_;
  std::copy(positions.begin(), positions.end(), pos_.begin() + first);
}

}  // namespace gc::net
