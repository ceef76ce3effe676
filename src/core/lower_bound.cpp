#include "core/lower_bound.hpp"

#include <algorithm>

#include "core/energy_manager.hpp"
#include "lp/simplex.hpp"
#include "net/capacity.hpp"
#include "queueing/queues.hpp"

namespace gc::core {

LowerBoundSolver::LowerBoundSolver(const NetworkModel& model, double V,
                                   double lambda)
    : model_(&model), v_(V), lambda_(lambda) {
  GC_CHECK_MSG(V > 0.0 && lambda >= 0.0,
               "lower bound needs V > 0 and lambda >= 0 (V = "
                   << V << ", lambda = " << lambda << ")");
  const int n = model.num_nodes();
  q_.assign(static_cast<std::size_t>(n) * model.num_sessions(), 0.0);
  g_.assign(static_cast<std::size_t>(n) * n, 0.0);
  x_.assign(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) x_[i] = model.node(i).battery.initial_level_j;
}

double LowerBoundSolver::step(const SlotInputs& inputs) {
  const auto& model = *model_;
  const int n = model.num_nodes();
  const int B = model.num_base_stations();
  const int S = model.num_sessions();
  const double beta = model.beta();
  const double dt = model.slot_seconds();

  auto qv = [&](int i, int s) {
    return model.session(s).destination == i
               ? 0.0
               : q_[static_cast<std::size_t>(i) * S + s];
  };
  auto hv = [&](int i, int j) {
    return beta * g_[static_cast<std::size_t>(i) * n + j];
  };

  // --- Scheduling + routing block -----------------------------------------
  //
  // After the relaxations listed in the header, each candidate link's
  // contribution is linear in its own alpha: activating it earns the Psi1
  // virtual-queue drain beta*H_ij*cap plus the best achievable Psi3 routing
  // gain cap * max(0, -min_s coeff_s) (a linear objective over a per-link
  // capacity budget always gives the whole budget to the best session).
  // What remains is a fractional-matching LP with one row per node.
  struct Link {
    int tx, rx;
    double cap_pkts;
    int best_session;  // -1 if no session has a negative coefficient
    double value;      // objective gain per unit alpha
  };
  std::vector<Link> links;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (!model.link_allowed(i, j)) continue;
      double best_bps = 0.0;
      for (int m = 0; m < model.num_bands(); ++m)
        if (model.spectrum().link_band_ok(i, j, m))
          best_bps = std::max(best_bps,
                              net::nominal_capacity_bps(
                                  inputs.bandwidth_hz[m],
                                  model.radio().sinr_threshold));
      if (best_bps <= 0.0) continue;
      Link l;
      l.tx = i;
      l.rx = j;
      l.cap_pkts = best_bps * dt / model.packet_bits();
      l.best_session = -1;
      double best_coeff = 0.0;
      for (int s = 0; s < S; ++s) {
        if (i == model.session(s).destination) continue;  // (17)
        const double coeff = -qv(i, s) + qv(j, s) + beta * hv(i, j);
        if (coeff < best_coeff) {
          best_coeff = coeff;
          l.best_session = s;
        }
      }
      l.value = l.cap_pkts * (beta * hv(i, j) - best_coeff);
      if (l.value <= 0.0) continue;
      links.push_back(l);
    }

  std::vector<double> alpha(links.size(), 0.0);
  if (!links.empty()) {
    lp::Model m;
    for (const auto& l : links) {
      // With R radios a link can aggregate up to min(R_tx, R_rx, #bands)
      // simultaneous band activations (any binary choice maps into this).
      int common = 0;
      for (int b = 0; b < model.num_bands(); ++b)
        if (model.spectrum().link_band_ok(l.tx, l.rx, b)) ++common;
      const double ub = std::min(
          {model.num_radios(l.tx), model.num_radios(l.rx), common});
      m.add_variable(0.0, std::max(ub, 1.0), -l.value);
    }
    std::vector<int> node_row(static_cast<std::size_t>(n), -1);
    for (std::size_t v = 0; v < links.size(); ++v)
      for (int node : {links[v].tx, links[v].rx}) {
        if (node_row[node] < 0)
          node_row[node] = m.add_row(lp::Sense::LessEqual,
                                     static_cast<double>(model.num_radios(node)));
        m.set_coeff(node_row[node], static_cast<int>(v), 1.0);
      }
    const lp::Solution sol = lp::solve(m);
    GC_CHECK_MSG(sol.status == lp::Status::Optimal,
                 "lower-bound matching LP: " << lp::to_string(sol.status));
    alpha = sol.x;
  }

  // --- Admission block -----------------------------------------------------
  //
  // Relaxed (19): total admission per session <= K_max, placed at whichever
  // base stations have Q_b^s < lambda V; linear => all of K_max goes to the
  // most negative coefficient.
  std::vector<double> admitted(static_cast<std::size_t>(B) * S, 0.0);
  for (int s = 0; s < S; ++s) {
    int best_b = 0;
    for (int b = 1; b < B; ++b)
      if (qv(b, s) < qv(best_b, s)) best_b = b;
    if (qv(best_b, s) - lambda_ * v_ < 0.0)
      admitted[static_cast<std::size_t>(best_b) * S + s] =
          model.session(s).max_admit_packets;
  }

  // --- Energy block ---------------------------------------------------------
  //
  // With the transmit/receive energy relaxed away, demand is the baseline
  // E_const + E_idle per node (an empty schedule) and the block is exactly
  // S4 on the relaxed system's own batteries, solved by the controller's
  // exact price solver. A scratch NetworkState carries (x, V).
  NetworkState scratch(model, v_);
  scratch.set_slot(slot_);  // the tariff keys the cost off the slot index
  for (int i = 0; i < n; ++i) scratch.set_battery_j(i, x_[i]);
  const EnergyResult energy = price_energy_manage(
      scratch, inputs, compute_energy_demands(model, {}));

  // --- Advance the relaxed system's queues ---------------------------------
  std::vector<double> served(q_.size(), 0.0), arrived(q_.size(), 0.0);
  for (std::size_t v = 0; v < links.size(); ++v) {
    const auto& l = links[v];
    if (l.best_session < 0 || alpha[v] <= 0.0) continue;
    const double flow = l.cap_pkts * alpha[v];
    served[static_cast<std::size_t>(l.tx) * S + l.best_session] += flow;
    arrived[static_cast<std::size_t>(l.rx) * S + l.best_session] += flow;
  }
  for (int b = 0; b < B; ++b)
    for (int s = 0; s < S; ++s)
      arrived[static_cast<std::size_t>(b) * S + s] +=
          admitted[static_cast<std::size_t>(b) * S + s];
  for (int i = 0; i < n; ++i)
    for (int s = 0; s < S; ++s) {
      const std::size_t idx = static_cast<std::size_t>(i) * S + s;
      if (model.session(s).destination == i) {
        q_[idx] = 0.0;
        continue;
      }
      q_[idx] = queueing::queue_step(q_[idx], served[idx], arrived[idx]);
    }
  for (std::size_t v = 0; v < links.size(); ++v) {
    const auto& l = links[v];
    const std::size_t idx = static_cast<std::size_t>(l.tx) * n + l.rx;
    const double flow =
        l.best_session >= 0 ? l.cap_pkts * alpha[v] : 0.0;
    g_[idx] = queueing::queue_step(g_[idx], l.cap_pkts * alpha[v], flow);
  }
  for (int i = 0; i < n; ++i) {
    const auto& d = energy.decisions[i];
    x_[i] += d.charge_total_j() - d.discharge_j;
    x_[i] = std::clamp(x_[i], 0.0, model.node(i).battery.capacity_j);
  }

  const double slot_cost = energy.cost;
  cost_avg_.add(slot_cost);
  ++slot_;
  return slot_cost;
}

double LowerBoundSolver::lower_bound() const {
  return average_cost() - model_->drift_constant_B() / v_;
}

}  // namespace gc::core
