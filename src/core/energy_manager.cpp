#include "core/energy_manager.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "lp/pwl.hpp"
#include "lp/simplex.hpp"
#include "util/thread_pool.hpp"

namespace gc::core {

std::vector<double> compute_energy_demands(
    const NetworkModel& model, const std::vector<ScheduledLink>& schedule) {
  const int n = model.num_nodes();
  const double dt = model.slot_seconds();
  std::vector<double> demand(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i)
    demand[i] = energy::baseline_energy_j(model.node(i).energy, dt);
  for (const auto& sl : schedule) {
    demand[sl.tx] += sl.power_w * dt;                          // eq. (23) TX
    demand[sl.rx] += model.node(sl.rx).energy.recv_power_w * dt;  // RX
  }
  return demand;
}

std::vector<double> compute_energy_demands(
    const NetworkModel& model, const std::vector<ScheduledLink>& schedule,
    const SlotInputs& inputs) {
  std::vector<double> d = compute_energy_demands(model, schedule);
  for (int i = 0; i < model.num_nodes(); ++i)
    d[i] = inputs.node_is_down(i)     ? 0.0
           : inputs.node_is_asleep(i) ? inputs.policy_demand(i)
                                      : d[i] + inputs.policy_demand(i);
  return d;
}

namespace {

struct NodeInstance {
  double demand_j = 0.0;
  double renewable_j = 0.0;
  double grid_cap_j = 0.0;
  double charge_cap_j = 0.0;     // min(c_max, x_max - x), eq. (11)
  double discharge_cap_j = 0.0;  // min(d_max, x), eq. (12)
  double z = 0.0;
  bool connected = false;
  bool priced = false;  // grid draw enters f(P) (base stations)
};

struct NodeResponse {
  NodeEnergyDecision d;
  // Lexicographic score: minimize unserved first, then z(c-d) + pi*draw.
  double priced_score = 0.0;
};

NodeInstance make_instance(const NetworkState& state, const SlotInputs& inputs,
                           const std::vector<double>& demands_j, int i) {
  const auto& model = state.model();
  NodeInstance inst;
  inst.priced = model.topology().is_base_station(i);
  if (inputs.node_is_down(i)) {
    // A down node is inert: no demand, no renewable intake, no grid draw,
    // battery frozen. All caps zero makes every solver's best response the
    // all-zeros decision.
    inst.connected = inputs.grid_connected[i] != 0;
    return inst;
  }
  inst.demand_j = demands_j[i];
  inst.renewable_j = inputs.renewable_j[i];
  inst.connected = inputs.grid_connected[i] != 0;
  inst.grid_cap_j = inst.connected ? model.node(i).grid.max_draw_j : 0.0;
  inst.charge_cap_j = state.charge_headroom_j(i);
  inst.discharge_cap_j = state.discharge_headroom_j(i);
  inst.z = state.z(i);
  return inst;
}

// The slot's effective tariff: the time-varying base tariff scaled by the
// fault overlay's price-spike multiplier.
energy::QuadraticCost effective_cost(const NetworkState& state,
                                     const SlotInputs& inputs) {
  const energy::QuadraticCost base = state.model().cost_at(state.slot());
  return inputs.cost_multiplier == 1.0 ? base
                                       : base.scaled(inputs.cost_multiplier);
}

// Discharge branch: c = 0, fill the demand from {renewable, grid,
// discharge} in increasing unit-cost order (r: 0, g: pi_eff, d: -z).
NodeResponse discharge_branch(const NodeInstance& inst, double pi_eff) {
  struct Source {
    double unit_cost;
    double cap;
    int kind;  // 0 = r, 1 = g, 2 = d (tie order)
  };
  std::array<Source, 3> sources = {
      Source{0.0, inst.renewable_j, 0},
      Source{pi_eff, inst.grid_cap_j, 1},
      Source{-inst.z, inst.discharge_cap_j, 2}};
  std::sort(sources.begin(), sources.end(), [](const Source& a, const Source& b) {
    if (a.unit_cost != b.unit_cost) return a.unit_cost < b.unit_cost;
    return a.kind < b.kind;
  });

  NodeResponse resp;
  double need = inst.demand_j;
  for (const auto& s : sources) {
    const double take = std::min(need, s.cap);
    if (take <= 0.0) continue;
    switch (s.kind) {
      case 0: resp.d.serve_renewable_j = take; break;
      case 1: resp.d.serve_grid_j = take; break;
      case 2: resp.d.discharge_j = take; break;
    }
    need -= take;
  }
  resp.d.unserved_j = std::max(need, 0.0);
  resp.d.curtailed_j = inst.renewable_j - resp.d.serve_renewable_j;
  resp.d.demand_j = inst.demand_j;
  resp.d.connected = inst.connected;
  resp.priced_score =
      -inst.z * resp.d.discharge_j + pi_eff * resp.d.grid_draw_j();
  return resp;
}

// Charge branch: d = 0. Everything is a piecewise-linear function of the
// grid energy g used for serving demand; evaluating the objective at the
// kink candidates is exact.
NodeResponse charge_branch(const NodeInstance& inst, double pi_eff) {
  const double g_hi = std::min(inst.demand_j, inst.grid_cap_j);
  const double g_lo = std::clamp(inst.demand_j - inst.renewable_j, 0.0, g_hi);
  const double kink = inst.charge_cap_j - inst.renewable_j + inst.demand_j;
  const std::array<double, 3> candidates = {
      g_lo, g_hi, std::clamp(kink, g_lo, g_hi)};
  // Every candidate has g >= g_lo, so each leaves the same shortfall: only
  // demand beyond renewable + grid cap goes unserved. Computing it from the
  // caps rather than as demand - g - r keeps a covered demand at exactly 0
  // (demand - (demand - R) need not round back to R).
  const double unserved =
      std::max(inst.demand_j - inst.renewable_j - g_hi, 0.0);

  NodeResponse best;
  bool have = false;
  for (double g : candidates) {
    NodeEnergyDecision d;
    d.demand_j = inst.demand_j;
    d.connected = inst.connected;
    d.serve_grid_j = g;
    d.serve_renewable_j = std::min(inst.demand_j - g, inst.renewable_j);
    d.unserved_j = unserved;
    const double surplus = inst.renewable_j - d.serve_renewable_j;
    d.charge_renewable_j =
        inst.z < 0.0 ? std::min(surplus, inst.charge_cap_j) : 0.0;
    d.curtailed_j = surplus - d.charge_renewable_j;
    const double room =
        std::min(inst.charge_cap_j - d.charge_renewable_j, inst.grid_cap_j - g);
    d.charge_grid_j = (inst.z + pi_eff < 0.0) ? std::max(room, 0.0) : 0.0;
    const double score = inst.z * d.charge_total_j() + pi_eff * d.grid_draw_j();
    if (!have || score < best.priced_score - 1e-12) {
      best.d = d;
      best.priced_score = score;
      have = true;
    }
  }
  return best;
}

// Best response of one node to marginal grid price pi (V f'(P) for priced
// nodes; grid energy is free for users per Section II-E).
NodeResponse best_response(const NodeInstance& inst, double pi) {
  const double pi_eff = inst.priced ? pi : 0.0;
  const NodeResponse dis = discharge_branch(inst, pi_eff);
  const NodeResponse chg = charge_branch(inst, pi_eff);
  // Lexicographic: serve demand first (eq. (9) forces choosing a branch).
  if (dis.d.unserved_j < chg.d.unserved_j - 1e-12) return dis;
  if (chg.d.unserved_j < dis.d.unserved_j - 1e-12) return chg;
  return dis.priced_score < chg.priced_score - 1e-12 ? dis : chg;
}

EnergyResult assemble(const NetworkState& state, const SlotInputs& inputs,
                      std::vector<NodeEnergyDecision> decisions) {
  const auto& model = state.model();
  EnergyResult res;
  res.decisions = std::move(decisions);
  for (int i = 0; i < model.num_nodes(); ++i) {
    auto& d = res.decisions[i];
    // A down node cannot harvest: whatever renewable arrived is wasted.
    // (Its instance had renewable 0, so serve/charge are already 0.)
    if (inputs.node_is_down(i)) d.curtailed_j = inputs.renewable_j[i];
    if (model.topology().is_base_station(i)) res.grid_total_j += d.grid_draw_j();
    res.objective += state.z(i) * (d.charge_total_j() - d.discharge_j);
    res.unserved_total_j += d.unserved_j;
  }
  res.cost = effective_cost(state, inputs).value(res.grid_total_j);
  res.objective += state.V() * res.cost;
  return res;
}

// Restores the charge-XOR-discharge rule (9) on a decision that may carry
// both sides (LP degenerate ties; blended marginal nodes). Cancels
// t = min(c, d) against both: the demand d was covering is re-served from
// the freed renewable (c_r) or grid (c_g) energy. z(c - d), the grid draw
// g + c_g, and every constraint are invariant under the swap.
void restore_charge_xor(NodeEnergyDecision& d) {
  const double t = std::min(d.charge_total_j(), d.discharge_j);
  if (t <= 0.0) return;
  const double via_renew = std::min(t, d.charge_renewable_j);
  d.charge_renewable_j -= via_renew;
  d.serve_renewable_j += via_renew;
  const double via_grid = t - via_renew;
  d.charge_grid_j -= via_grid;
  d.serve_grid_j += via_grid;
  d.discharge_j -= t;
  // Clear the floating-point residue on whichever side was cancelled.
  const double eps = 1e-9 * (1.0 + t);
  if (d.charge_renewable_j < eps) d.charge_renewable_j = 0.0;
  if (d.charge_grid_j < eps) d.charge_grid_j = 0.0;
  if (d.discharge_j < eps) d.discharge_j = 0.0;
}

}  // namespace

EnergyResult price_energy_manage(const NetworkState& state,
                                 const SlotInputs& inputs,
                                 const std::vector<double>& demands_j) {
  const auto& model = state.model();
  const int n = model.num_nodes();
  GC_CHECK(static_cast<int>(demands_j.size()) == n);
  const double V = state.V();

  std::vector<NodeInstance> insts;
  insts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    insts.push_back(make_instance(state, inputs, demands_j, i));

  const auto priced_draw = [&](double pi) {
    double total = 0.0;
    for (const auto& inst : insts)
      if (inst.priced) total += best_response(inst, pi).d.grid_draw_j();
    return total;
  };

  // Bisection on phi(pi) = pi - V f'(D(pi)), which is increasing. Under a
  // time-varying tariff (and any price-spike multiplier) the slot's
  // effective cost function applies.
  const energy::QuadraticCost cost = effective_cost(state, inputs);
  double lo = V * cost.derivative(0.0);
  double hi = V * cost.derivative(model.max_total_grid_j());
  for (int it = 0; it < 64 && hi - lo > 1e-12 * (1.0 + hi); ++it) {
    const double mid = 0.5 * (lo + hi);
    const double phi = mid - V * cost.derivative(priced_draw(mid));
    (phi < 0.0 ? lo : hi) = mid;
  }

  // D(pi) is a step function: the bracket ends give an all-grid /
  // no-grid pair around the marginal node. Candidate solutions: both ends,
  // plus a blend that moves the marginal nodes' grid usage fractionally so
  // the total lands exactly where V f'(P) meets the price (the step a
  // closed-form threshold policy cannot split on its own; the blend is
  // feasible because each node's constraint set is convex and we only
  // blend nodes whose charge-XOR-discharge pattern matches at both ends).
  std::vector<NodeEnergyDecision> dec_lo(static_cast<std::size_t>(n)),
      dec_hi(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    dec_lo[i] = best_response(insts[i], lo).d;
    dec_hi[i] = best_response(insts[i], hi).d;
  }
  auto priced_total = [&](const std::vector<NodeEnergyDecision>& d) {
    double p = 0.0;
    for (int i = 0; i < n; ++i)
      if (insts[i].priced) p += d[i].grid_draw_j();
    return p;
  };
  const double d_lo = priced_total(dec_lo);
  const double d_hi = priced_total(dec_hi);

  std::vector<std::vector<NodeEnergyDecision>> candidates;
  candidates.push_back(dec_hi);
  candidates.push_back(dec_lo);
  if (d_lo > d_hi + 1e-9 && cost.a() > 0.0) {
    const double target = std::clamp(
        cost.inverse_derivative(0.5 * (lo + hi) / std::max(V, 1e-30)),
        d_hi, d_lo);
    const double phi = (target - d_hi) / (d_lo - d_hi);
    std::vector<NodeEnergyDecision> blend = dec_hi;
    for (int i = 0; i < n; ++i) {
      if (!insts[i].priced) continue;
      const auto& a = dec_hi[i];
      const auto& b = dec_lo[i];
      auto& d = blend[i];
      auto mix = [phi](double x, double y) { return x + phi * (y - x); };
      d.serve_renewable_j = mix(a.serve_renewable_j, b.serve_renewable_j);
      d.serve_grid_j = mix(a.serve_grid_j, b.serve_grid_j);
      d.discharge_j = mix(a.discharge_j, b.discharge_j);
      d.charge_renewable_j = mix(a.charge_renewable_j, b.charge_renewable_j);
      d.charge_grid_j = mix(a.charge_grid_j, b.charge_grid_j);
      d.curtailed_j = mix(a.curtailed_j, b.curtailed_j);
      d.unserved_j = mix(a.unserved_j, b.unserved_j);
      // A node flipping between a discharge-flavored and a charge-flavored
      // endpoint blends to a (9)-violating point; cancel it back.
      restore_charge_xor(d);
    }
    candidates.push_back(std::move(blend));
  }

  EnergyResult best;
  bool have = false;
  for (auto& cand : candidates) {
    EnergyResult res = assemble(state, inputs, std::move(cand));
    if (!have || res.unserved_total_j < best.unserved_total_j - 1e-12 ||
        (res.unserved_total_j <= best.unserved_total_j + 1e-12 &&
         res.objective < best.objective)) {
      best = std::move(res);
      have = true;
    }
  }
  return best;
}

EnergyResult lp_energy_manage(const NetworkState& state,
                              const SlotInputs& inputs,
                              const std::vector<double>& demands_j,
                              const EnergyLpOptions& options,
                              const lp::Options& lp_options,
                              lp::Workspace* workspace) {
  const auto& model = state.model();
  const int n = model.num_nodes();
  const int pwl_segments = options.pwl_segments;
  GC_CHECK(static_cast<int>(demands_j.size()) == n);
  GC_CHECK(pwl_segments >= 2);
  const double V = state.V();

  // Decomposition: the LP covers the node prefix [0, k) — base stations
  // are always the first indices — and every user in [k, n) is solved by
  // its exact closed-form best response at grid price 0 (users' grid
  // energy never enters f(P), so their subproblems are independent of P
  // and of each other; docs/ALGORITHM.md "Why the S4 split is exact").
  const bool decompose =
      options.decompose == S4Decompose::Force ||
      (options.decompose == S4Decompose::Auto &&
       n >= options.decompose_min_nodes);
  const int k = decompose ? model.num_base_stations() : n;

  std::vector<NodeEnergyDecision> decisions(static_cast<std::size_t>(n));
  if (k < n) {
    // Fixed chunk grain: the split depends only on (n, k, threads), so the
    // work partition — and with it every FP result, each written to its own
    // slot — is identical however the chunks land on workers. Without a
    // pool, or with one worker, all users are one chunk run inline.
    util::ThreadPool* pool = options.pool;
    const int threads = pool != nullptr ? pool->num_threads() : 1;
    const int users = n - k;
    const int chunk =
        threads > 1 ? std::max(64, (users + threads - 1) / threads) : users;
    const int chunks = (users + chunk - 1) / chunk;
    util::parallel_for(threads > 1 ? pool : nullptr, chunks, [&](int c) {
      for (int i = k + c * chunk; i < std::min(k + (c + 1) * chunk, n); ++i)
        decisions[static_cast<std::size_t>(i)] =
            best_response(make_instance(state, inputs, demands_j, i), 0.0).d;
    });
  }

  // Penalty dominating every per-joule gain so unserved energy is a last
  // resort. Computed over ALL nodes so the objective scale is identical
  // with and without decomposition.
  double max_abs_z = 0.0;
  for (int i = 0; i < n; ++i) max_abs_z = std::max(max_abs_z, std::abs(state.z(i)));
  const double big_m = 10.0 * (max_abs_z + V * model.gamma_max() + 1.0);

  lp::Model m;
  struct NodeVars {
    int r, d, cr, cg, g, u;
  };
  std::vector<NodeVars> nv(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const NodeInstance inst = make_instance(state, inputs, demands_j, i);
    const double z = inst.z;
    nv[i].r = m.add_variable(0.0, inst.renewable_j, 0.0);
    nv[i].d = m.add_variable(0.0, inst.discharge_cap_j, -z);
    nv[i].cr = m.add_variable(0.0, inst.charge_cap_j, z);
    nv[i].cg = m.add_variable(0.0, inst.connected ? inst.grid_cap_j : 0.0, z);
    nv[i].g = m.add_variable(0.0, inst.connected ? inst.grid_cap_j : 0.0, 0.0);
    nv[i].u = m.add_variable(0.0, lp::kInf, big_m);
    // Demand balance: r + d + g + u = E (eq. in Sec. II-E with slack).
    const int demand_row = m.add_row(lp::Sense::Equal, inst.demand_j);
    m.set_coeff(demand_row, nv[i].r, 1.0);
    m.set_coeff(demand_row, nv[i].d, 1.0);
    m.set_coeff(demand_row, nv[i].g, 1.0);
    m.set_coeff(demand_row, nv[i].u, 1.0);
    // Renewable split with curtailment: r + cr <= R (relaxed eq. (3)).
    const int renew_row = m.add_row(lp::Sense::LessEqual, inst.renewable_j);
    m.set_coeff(renew_row, nv[i].r, 1.0);
    m.set_coeff(renew_row, nv[i].cr, 1.0);
    // Grid cap (eq. (14)): g + cg <= p_max (0 if disconnected, via bounds).
    const int grid_row = m.add_row(lp::Sense::LessEqual, inst.grid_cap_j);
    m.set_coeff(grid_row, nv[i].g, 1.0);
    m.set_coeff(grid_row, nv[i].cg, 1.0);
    // Charge cap (eq. (11)): cr + cg <= headroom.
    const int charge_row = m.add_row(lp::Sense::LessEqual, inst.charge_cap_j);
    m.set_coeff(charge_row, nv[i].cr, 1.0);
    m.set_coeff(charge_row, nv[i].cg, 1.0);
  }
  // P = sum over base stations of (g + cg).
  const int pvar = m.add_variable(0.0, model.max_total_grid_j(), 0.0);
  const int prow = m.add_row(lp::Sense::Equal, 0.0);
  m.set_coeff(prow, pvar, -1.0);
  for (int i = 0; i < model.num_base_stations(); ++i) {
    m.set_coeff(prow, nv[i].g, 1.0);
    m.set_coeff(prow, nv[i].cg, 1.0);
  }
  // Epigraph variable y >= tangents of f; objective V*y.
  const int yvar = m.add_variable(0.0, lp::kInf, V);
  const energy::QuadraticCost cost = effective_cost(state, inputs);
  const auto segments = lp::tangent_segments(
      [&](double p) { return cost.value(p); },
      [&](double p) { return cost.derivative(p); }, 0.0,
      model.max_total_grid_j(), pwl_segments);
  for (const auto& seg : segments) {
    const int row = m.add_row(lp::Sense::LessEqual, -seg.intercept);
    m.set_coeff(row, pvar, seg.slope);
    m.set_coeff(row, yvar, -1.0);
  }

  lp::Workspace local_ws;
  const lp::Solution sol =
      lp::solve(m, lp_options, workspace != nullptr ? *workspace : local_ws);
  GC_CHECK_MSG(sol.status == lp::Status::Optimal,
               "S4 LP not optimal at slot " << state.slot() << ": "
                                            << lp::to_string(sol.status));

  for (int i = 0; i < k; ++i) {
    auto& d = decisions[i];
    d.demand_j = inputs.node_is_down(i) ? 0.0 : demands_j[i];
    d.connected = inputs.grid_connected[i] != 0;
    d.serve_renewable_j = sol.x[nv[i].r];
    d.discharge_j = sol.x[nv[i].d];
    d.charge_renewable_j = sol.x[nv[i].cr];
    d.charge_grid_j = sol.x[nv[i].cg];
    d.serve_grid_j = sol.x[nv[i].g];
    d.unserved_j = sol.x[nv[i].u];

    // Restore the charge-XOR-discharge rule (9), which the LP drops
    // (simultaneous pairs only arise at degenerate z_i ties).
    restore_charge_xor(d);

    d.curtailed_j = std::max(
        inputs.renewable_j[i] - d.serve_renewable_j - d.charge_renewable_j,
        0.0);
  }
  return assemble(state, inputs, std::move(decisions));
}

double psi4(const NetworkState& state,
            const std::vector<NodeEnergyDecision>& decisions,
            double cost_multiplier) {
  const auto& model = state.model();
  double total = 0.0;
  double p = 0.0;
  for (int i = 0; i < model.num_nodes(); ++i) {
    const auto& d = decisions[i];
    total += state.z(i) * (d.charge_total_j() - d.discharge_j);
    if (model.topology().is_base_station(i)) p += d.grid_draw_j();
  }
  return total +
         state.V() *
             model.cost_at(state.slot()).scaled(cost_multiplier).value(p);
}

}  // namespace gc::core
