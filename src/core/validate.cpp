#include "core/validate.hpp"

#include <cmath>
#include <map>
#include <sstream>

#include "core/energy_manager.hpp"
#include "net/capacity.hpp"

namespace gc::core {

std::vector<std::string> validate_decision(const NetworkState& pre_state,
                                           const SlotInputs& inputs,
                                           const SlotDecision& decision,
                                           const ValidateOptions& options) {
  const auto& model = pre_state.model();
  const int n = model.num_nodes();
  const int S = model.num_sessions();
  const double tol = options.tolerance;
  std::vector<std::string> out;
  auto fail = [&](const std::string& msg) { out.push_back(msg); };
  auto str = [](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
  };

  // ---- (22) radio budget per node, (20)/(21) one activity per
  // (node, band); band availability; architecture.
  std::vector<int> activity(static_cast<std::size_t>(n), 0);
  std::vector<int> band_activity(
      static_cast<std::size_t>(n) * model.num_bands(), 0);
  for (const auto& sl : decision.schedule) {
    if (sl.tx < 0 || sl.tx >= n || sl.rx < 0 || sl.rx >= n || sl.tx == sl.rx)
      fail(str("schedule: bad endpoints ", sl.tx, "->", sl.rx));
    else {
      ++activity[sl.tx];
      ++activity[sl.rx];
      ++band_activity[static_cast<std::size_t>(sl.tx) * model.num_bands() +
                      sl.band];
      ++band_activity[static_cast<std::size_t>(sl.rx) * model.num_bands() +
                      sl.band];
      if (!model.link_allowed(sl.tx, sl.rx))
        fail(str("architecture: link ", sl.tx, "->", sl.rx, " not allowed"));
      if (!model.spectrum().link_band_ok(sl.tx, sl.rx, sl.band))
        fail(str("band ", sl.band, " not in M_", sl.tx, " ∩ M_", sl.rx));
    }
    if (sl.power_w < -tol ||
        sl.power_w > model.node(sl.tx).energy.max_tx_power_w + tol)
      fail(str("power out of range on ", sl.tx, "->", sl.rx, ": ", sl.power_w));
  }
  for (int i = 0; i < n; ++i) {
    if (activity[i] > model.num_radios(i))
      fail(str("(22) violated: node ", i, " active ", activity[i],
               " times with ", model.num_radios(i), " radio(s)"));
    for (int m = 0; m < model.num_bands(); ++m)
      if (band_activity[static_cast<std::size_t>(i) * model.num_bands() + m] >
          1)
        fail(str("(20)/(21) violated: node ", i, " has multiple activities ",
                 "on band ", m));
  }

  // ---- (24): SINR >= Gamma per scheduled link, with co-band interference.
  for (int band = 0; band < model.num_bands(); ++band) {
    std::vector<net::Transmission> txs;
    for (const auto& sl : decision.schedule)
      if (sl.band == band)
        txs.push_back(net::Transmission{sl.tx, sl.rx, sl.power_w});
    const std::vector<double> gain =
        net::band_gain_table(model.topology(), txs);
    for (std::size_t k = 0; k < txs.size(); ++k) {
      const double s = net::sinr(gain, txs, k, inputs.bandwidth_hz[band],
                                 model.radio());
      if (s < model.radio().sinr_threshold * (1.0 - 1e-6))
        fail(str("(24) violated: SINR ", s, " on ", txs[k].tx, "->", txs[k].rx,
                 " band ", band));
    }
  }

  // ---- (25): routed packets within scheduled capacity, per link.
  std::map<std::pair<int, int>, double> link_cap, link_load;
  for (const auto& sl : decision.schedule)
    link_cap[{sl.tx, sl.rx}] += sl.capacity_packets;
  for (const auto& r : decision.routes) {
    if (r.packets < -tol) fail("negative route packets");
    link_load[{r.tx, r.rx}] += r.packets;
  }
  for (const auto& [link, load] : link_load) {
    const auto it = link_cap.find(link);
    const double cap = it == link_cap.end() ? 0.0 : it->second;
    if (load > cap + tol)
      fail(str("(25) violated: load ", load, " > capacity ", cap, " on ",
               link.first, "->", link.second));
  }

  // ---- (16)-(19): routing structure.
  if (static_cast<int>(decision.admissions.size()) != S)
    fail("admissions arity mismatch");
  for (int s = 0; s < S && s < static_cast<int>(decision.admissions.size());
       ++s) {
    const auto& adm = decision.admissions[s];
    if (adm.packets > 0.0 &&
        (adm.source_bs < 0 || adm.source_bs >= model.num_base_stations()))
      fail(str("(19) violated: session ", s, " has no valid source BS"));
    if (adm.packets < -tol ||
        adm.packets > model.session(s).max_admit_packets + tol)
      fail(str("admission k_", s, " out of [0, K_max]: ", adm.packets));
    const int dest = model.session(s).destination;
    double into_source = 0.0, out_of_dest = 0.0, into_dest = 0.0;
    for (const auto& r : decision.routes) {
      if (r.session != s) continue;
      if (r.rx == adm.source_bs) into_source += r.packets;
      if (r.tx == dest) out_of_dest += r.packets;
      if (r.rx == dest) into_dest += r.packets;
    }
    if (into_source > tol)
      fail(str("(16) violated: ", into_source, " packets into source of ", s));
    if (out_of_dest > tol)
      fail(str("(17) violated: ", out_of_dest, " packets out of dest of ", s));
    const double shortfall =
        s < static_cast<int>(decision.demand_shortfall.size())
            ? decision.demand_shortfall[s]
            : 0.0;
    if (std::abs(into_dest + shortfall - model.demand_packets(s, inputs)) >
        tol)
      fail(str("(18) violated: session ", s, " delivered ", into_dest,
               " + shortfall ", shortfall, " != demand ",
               model.demand_packets(s, inputs)));
    if (options.require_demand_met && shortfall > tol)
      fail(str("(18) shortfall ", shortfall, " for session ", s));
  }

  // ---- (9)-(14): energy management.
  if (static_cast<int>(decision.energy.size()) != n) {
    fail("energy arity mismatch");
    return out;
  }
  // The demand S4 had to meet, under the fault and sleep overlays; a down
  // node must also not act at all this slot.
  const std::vector<double> demands =
      compute_energy_demands(model, decision.schedule, inputs);
  double p_total = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto& e = decision.energy[i];
    const bool connected = inputs.grid_connected[i] != 0;
    if (inputs.node_is_down(i) &&
        (e.grid_draw_j() > tol || e.charge_total_j() > tol ||
         e.discharge_j > tol || e.serve_renewable_j > tol))
      fail(str("down node ", i, " took energy action"));
    if (e.connected != connected)
      fail(str("omega mismatch at node ", i));
    for (double v : {e.serve_renewable_j, e.serve_grid_j, e.discharge_j,
                     e.charge_renewable_j, e.charge_grid_j, e.curtailed_j,
                     e.unserved_j})
      if (v < -tol) fail(str("negative energy variable at node ", i));
    // (9): charge XOR discharge.
    if (e.charge_total_j() > tol && e.discharge_j > tol)
      fail(str("(9) violated at node ", i, ": charge ", e.charge_total_j(),
               " and discharge ", e.discharge_j));
    // (11)/(12): headrooms against the pre-decision battery level.
    if (e.charge_total_j() > pre_state.charge_headroom_j(i) + tol)
      fail(str("(11) violated at node ", i));
    if (e.discharge_j > pre_state.discharge_headroom_j(i) + tol)
      fail(str("(12) violated at node ", i));
    // (14): grid draw within p_max, zero when disconnected.
    const double draw = e.grid_draw_j();
    if (!connected && draw > tol)
      fail(str("grid draw while disconnected at node ", i));
    if (draw > model.node(i).grid.max_draw_j + tol)
      fail(str("(14) violated at node ", i, ": draw ", draw));
    // Renewable split (relaxed eq. (3)): r + c_r + curtail = R.
    if (std::abs(e.serve_renewable_j + e.charge_renewable_j + e.curtailed_j -
                 inputs.renewable_j[i]) > tol)
      fail(str("renewable split broken at node ", i));
    // Demand balance: E = g + r + d (+ unserved slack).
    if (std::abs(e.serve_grid_j + e.serve_renewable_j + e.discharge_j +
                 e.unserved_j - demands[i]) > tol)
      fail(str("demand balance broken at node ", i, ": E=", demands[i]));
    if (options.require_energy_served && e.unserved_j > tol)
      fail(str("unserved energy ", e.unserved_j, " at node ", i));
    if (std::abs(e.demand_j - demands[i]) > tol)
      fail(str("recorded demand mismatch at node ", i));
    if (model.topology().is_base_station(i)) p_total += draw;
  }
  if (std::abs(p_total - decision.grid_total_j) > tol)
    fail(str("P(t) mismatch: ", p_total, " vs ", decision.grid_total_j));
  // The recorded cost is against the slot's effective tariff: the base
  // tariff scaled by the fault overlay's price-spike multiplier.
  if (std::abs(model.cost_at(pre_state.slot())
                   .scaled(inputs.cost_multiplier)
                   .value(p_total) -
               decision.cost) > tol * (1.0 + decision.cost))
    fail("cost f(P) mismatch");

  // Down or sleeping nodes must be absent from the schedule, the routes,
  // and the admission sources.
  if (inputs.any_node_inactive()) {
    for (const auto& sl : decision.schedule)
      if (inputs.node_is_inactive(sl.tx) || inputs.node_is_inactive(sl.rx))
        fail(str("inactive node scheduled on ", sl.tx, "->", sl.rx));
    for (const auto& r : decision.routes)
      if (inputs.node_is_inactive(r.tx) || inputs.node_is_inactive(r.rx))
        fail(str("inactive node routed on ", r.tx, "->", r.rx));
    for (std::size_t s = 0; s < decision.admissions.size(); ++s) {
      const auto& adm = decision.admissions[s];
      if (adm.packets > tol && adm.source_bs >= 0 &&
          inputs.node_is_inactive(adm.source_bs))
        fail(str("session ", s, " admitted at inactive BS ", adm.source_bs));
    }
  }

  return out;
}

}  // namespace gc::core
