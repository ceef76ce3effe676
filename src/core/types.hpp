// Shared value types for the per-slot optimization pipeline.
#pragma once

#include <vector>

#include "util/check.hpp"

namespace gc::core {

// A downlink Internet service session {d_s, v_s(t), s_s(t)} (Section II-A).
// The destination is fixed; the source base station s_s(t) is chosen by the
// resource-allocation subproblem each slot.
struct Session {
  int destination = -1;           // a user node
  double demand_packets = 0.0;    // v_s(t), constant-rate model
  double max_admit_packets = 0.0; // K_s^max, cap on k_s(t)
};

// Everything random that is observed at the start of a slot, plus the
// fault-injection overlay (src/fault) the simulator may have applied before
// the controller observes it. The overlay fields default to "benign": empty
// vectors mean no node is down and no link is faded, multiplier 1 means the
// tariffed cost applies unchanged.
struct SlotInputs {
  std::vector<double> bandwidth_hz;   // W_m(t), indexed by band
  std::vector<double> renewable_j;    // R_i(t) * dt, indexed by node
  std::vector<char> grid_connected;   // omega_i(t), indexed by node
  // v_s(t), indexed by session, sampled from the model's TrafficModel
  // (core/traffic.hpp). Empty under the constant-rate model, in which case
  // every consumer uses the sessions' constant demand — the pre-scenario
  // behavior, bit for bit. Read via NetworkModel::demand_packets.
  std::vector<double> session_demand_packets;

  // Fault overlay. A down node admits, forwards, transmits, receives,
  // charges and discharges nothing — its queues and battery freeze. A faded
  // link (row-major tx * n + rx) carries no traffic this slot. The cost
  // multiplier scales f(P) for the slot (grid price spike).
  std::vector<char> node_down;   // empty or indexed by node
  std::vector<char> link_faded;  // empty or num_nodes^2, row-major
  double cost_multiplier = 1.0;

  // Sleep overlay (src/policy). An asleep base station is masked out of
  // S1–S3 exactly like a down node — its data and virtual queues freeze,
  // sessions admit and route around it — but unlike a down node it still
  // PAYS for energy: its S4 demand is replaced by policy_demand_j (tier
  // sleep power plus any switching energy this slot), which it may serve
  // from the grid, renewables, or its battery, and it keeps harvesting
  // (charging) while asleep. A node that is both down and asleep behaves
  // as down: the outage zeroes the demand too.
  std::vector<char> node_asleep;        // empty or indexed by node
  std::vector<double> policy_demand_j;  // empty or indexed by node

  bool node_is_down(int node) const {
    return !node_down.empty() && node_down[node] != 0;
  }
  bool node_is_asleep(int node) const {
    return !node_asleep.empty() && node_asleep[node] != 0;
  }
  // Masked out of the combinatorial subproblems (S1–S3): down or asleep.
  bool node_is_inactive(int node) const {
    return node_is_down(node) || node_is_asleep(node);
  }
  double policy_demand(int node) const {
    return policy_demand_j.empty() ? 0.0 : policy_demand_j[node];
  }
  bool link_is_faded(int tx, int rx, int num_nodes) const {
    return !link_faded.empty() &&
           link_faded[static_cast<std::size_t>(tx) * num_nodes + rx] != 0;
  }
  bool any_node_down() const {
    for (char d : node_down)
      if (d) return true;
    return false;
  }
  bool any_node_asleep() const {
    for (char d : node_asleep)
      if (d) return true;
    return false;
  }
  bool any_node_inactive() const { return any_node_down() || any_node_asleep(); }
};

// One active alpha_ij^m(t) = 1 with its transmission power and realized
// capacity (eq. (1)).
struct ScheduledLink {
  int tx = -1;
  int rx = -1;
  int band = -1;
  double power_w = 0.0;
  double capacity_bps = 0.0;
  // floor(capacity * dt / delta): packets the link can carry this slot.
  double capacity_packets = 0.0;
};

// l_ij^s(t) > 0 entries.
struct RouteDecision {
  int tx = -1;
  int rx = -1;
  int session = -1;
  double packets = 0.0;
};

// Source selection + admission for one session (subproblem S2).
struct AdmissionDecision {
  int source_bs = -1;
  double packets = 0.0;  // k_s(t)
};

// Energy-management variables of one node (subproblem S4). All joules.
struct NodeEnergyDecision {
  double demand_j = 0.0;           // E_i(t), fixed by the schedule
  double serve_renewable_j = 0.0;  // r_i
  double serve_grid_j = 0.0;       // g_i
  double discharge_j = 0.0;        // d_i
  double charge_renewable_j = 0.0; // c_i^r
  double charge_grid_j = 0.0;      // c_i^g
  double curtailed_j = 0.0;        // renewable neither used nor stored
  double unserved_j = 0.0;         // demand shortfall (0 in normal operation)
  bool connected = false;          // omega_i(t)

  double charge_total_j() const { return charge_renewable_j + charge_grid_j; }
  double grid_draw_j() const { return serve_grid_j + charge_grid_j; }
};

// The full outcome of one slot of the online algorithm.
struct SlotDecision {
  std::vector<ScheduledLink> schedule;
  std::vector<RouteDecision> routes;
  std::vector<AdmissionDecision> admissions;  // indexed by session
  std::vector<NodeEnergyDecision> energy;     // indexed by node
  double grid_total_j = 0.0;  // P(t): base-station grid draws only
  double cost = 0.0;          // f(P(t))
  // Diagnostics: unmet destination demand per session (packets) and total
  // demand shortfall in energy (joules); both 0 in normal operation.
  std::vector<double> demand_shortfall;
  double unserved_energy_j = 0.0;
  // Graceful degradation (docs/ROBUSTNESS.md): how many subproblem solvers
  // fell down the fallback ladder this slot (S1 SequentialFix -> Greedy,
  // S3 Lp -> Greedy, S4 Lp -> Price), and whether any did.
  int fallbacks = 0;
  bool degraded = false;

  double routed_packets(int tx, int rx, int session) const {
    for (const auto& r : routes)
      if (r.tx == tx && r.rx == rx && r.session == session) return r.packets;
    return 0.0;
  }
};

}  // namespace gc::core
