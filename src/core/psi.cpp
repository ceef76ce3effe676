#include "core/psi.hpp"

#include <cstdint>
#include <vector>

#include "core/energy_manager.hpp"
#include "core/router.hpp"

namespace gc::core {

double lyapunov(const NetworkState& state) {
  const auto& model = state.model();
  const std::int64_t n = model.num_nodes();
  // Node i adds its Q^2 terms from the stored table in session order, then
  // z_i^2, then its H^2 terms from G's stored entries only. A destination's
  // Q and an absent G_ij are +0.0, and adding +0.0 to a sum of squares
  // leaves it unchanged (docs/ALGORITHM.md "Why walking only G's nonzeros
  // is exact").
  const std::vector<GEntry>& g = state.g_entries();
  auto e = g.begin();
  auto q = state.q_table().begin();
  const int S = model.num_sessions();
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    for (const auto row_end = q + S; q != row_end; ++q) total += *q * *q;
    const double z = state.z(i);
    total += z * z;
    for (; e != g.end() && e->link < (i + 1) * n; ++e) {
      const double h = model.beta() * e->g;
      total += h * h;
    }
  }
  return 0.5 * total;
}

double psi1_hat(const NetworkState& state,
                const std::vector<ScheduledLink>& schedule) {
  double total = 0.0;
  for (const auto& sl : schedule)
    total += state.h(sl.tx, sl.rx) * sl.capacity_packets;
  return -state.model().beta() * total;
}

double psi2_hat(const NetworkState& state, double lambda,
                const std::vector<AdmissionDecision>& admissions) {
  return psi2(state, AllocatorParams{lambda}, admissions);
}

double psi3_hat(const NetworkState& state,
                const std::vector<RouteDecision>& routes) {
  return routing_objective(state, routes);
}

double psi4_hat(const NetworkState& state,
                const std::vector<NodeEnergyDecision>& decisions) {
  return psi4(state, decisions);
}

double penalty(const NetworkState& state, double lambda,
               const SlotDecision& decision) {
  double admitted = 0.0;
  for (const auto& a : decision.admissions) admitted += a.packets;
  return state.V() * (decision.cost - lambda * admitted);
}

}  // namespace gc::core
