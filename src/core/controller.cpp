#include "core/controller.hpp"

#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace gc::core {

namespace {

// Registry handles resolved once per thread, against the thread-current
// registry (obs/registry.hpp); step() only bumps them and never looks a
// name up.
struct ControllerMetrics {
  obs::Histogram& step = obs::registry().histogram("ctrl.step_seconds");
  obs::Histogram& s1 = obs::registry().histogram("ctrl.s1_sched_seconds");
  obs::Histogram& s2 = obs::registry().histogram("ctrl.s2_admit_seconds");
  obs::Histogram& s3 = obs::registry().histogram("ctrl.s3_route_seconds");
  obs::Histogram& s4 = obs::registry().histogram("ctrl.s4_energy_seconds");
  obs::Counter& slots = obs::registry().counter("ctrl.slots");
  obs::Counter& grid_j = obs::registry().counter("energy.grid_j");
  obs::Counter& renewable_j = obs::registry().counter("energy.renewable_served_j");
  obs::Counter& discharge_j = obs::registry().counter("energy.battery_discharge_j");
  obs::Counter& charge_j = obs::registry().counter("energy.battery_charge_j");
  obs::Counter& curtailed_j = obs::registry().counter("energy.curtailed_j");
  obs::Counter& unserved_j = obs::registry().counter("energy.unserved_j");
  // Fallback ladder (docs/ROBUSTNESS.md): slots where an LP-based solver
  // failed and the cheaper one took over, per subproblem, plus the total
  // count of degraded slots.
  obs::Counter& fallback_s1 = obs::registry().counter("ctrl.fallback_s1");
  obs::Counter& fallback_s3 = obs::registry().counter("ctrl.fallback_s3");
  obs::Counter& fallback_s4 = obs::registry().counter("ctrl.fallback_s4");
  obs::Counter& degraded = obs::registry().counter("ctrl.degraded_slots");
};

ControllerMetrics& metrics() {
  static thread_local ControllerMetrics m;
  return m;
}

// One rung of the fallback ladder (docs/ROBUSTNESS.md): the LP-based
// solver `exact` when it is selected; with fallbacks on, a CheckError from
// it (watchdog limit, infeasibility, numerical trouble) hands this slot to
// the cheaper `cheap` instead of aborting the run, counted in `taken` and
// `slot_fallbacks`.
template <class Exact, class Cheap>
auto run_ladder(bool use_exact, bool fallbacks, obs::Counter& taken,
                int& slot_fallbacks, const Exact& exact, const Cheap& cheap) {
  if (!use_exact) return cheap();
  if (!fallbacks) return exact();
  try {
    return exact();
  } catch (const CheckError&) {
    taken.add();
    ++slot_fallbacks;
    return cheap();
  }
}

}  // namespace

LyapunovController::LyapunovController(const NetworkModel& model, double V,
                                       ControllerOptions options)
    : model_(&model), options_(options), state_(model, V) {
  // Label each workspace with its subproblem so SolveStats consumers (the
  // --lp-log stream, tests) can split the LP workload by solve class.
  lp_ws_s3_.set_stats_context("s3");
  lp_ws_s4_.set_stats_context("s4");
  lp_ws_s3_.set_stats_sink(options_.lp_stats);
  lp_ws_s4_.set_stats_sink(options_.lp_stats);
}

SlotDecision LyapunovController::step(const SlotInputs& inputs) {
  GC_CHECK(static_cast<int>(inputs.bandwidth_hz.size()) ==
           model_->num_bands());
  GC_CHECK(static_cast<int>(inputs.renewable_j.size()) == model_->num_nodes());
  GC_CHECK(static_cast<int>(inputs.grid_connected.size()) ==
           model_->num_nodes());

  // Announce the slot before any solve so every SolveStats record the
  // sinks see this step carries the right slot stamp.
  if (options_.lp_stats != nullptr) options_.lp_stats->begin_slot(state_.slot());

  ControllerMetrics& m = metrics();
  SlotDecision decision;
  // Span dims annotate problem sizes for the profiler (obs/profile.hpp):
  // the step carries the topology size, each subproblem its own decision
  // count (links scheduled, routes, energy demands).
  obs::Span step_span("controller.step", m.step, state_.slot(),
                      model_->num_nodes());

  // S2 — source selection + admission control.
  {
    obs::Span span("controller.s2_admission", m.s2, state_.slot());
    decision.admissions =
        allocate_resources(state_, options_.allocator, &inputs);
  }

  // S1 — link scheduling (ladder: SequentialFix -> Greedy), then
  // constraint (24) via minimal-power control.
  {
    obs::Span span("controller.s1_schedule", m.s1, state_.slot());
    const double energy_price =
        options_.energy_aware_scheduling
            ? state_.V() * model_->cost_at(state_.slot())
                               .scaled(inputs.cost_multiplier)
                               .derivative(last_grid_j_)
            : 0.0;
    decision.schedule = run_ladder(
        options_.scheduler == ControllerOptions::Scheduler::SequentialFix,
        options_.fallbacks, m.fallback_s1, decision.fallbacks,
        [&] {
          // One SF series per interference cluster, in cluster order.
          return sf_schedule(state_, inputs, options_.fill_in, energy_price,
                             options_.lp, options_.lp_stats);
        },
        [&] {
          return greedy_schedule(state_, inputs, options_.fill_in,
                                 energy_price);
        });
    {
      obs::Span power_span("s1.power", state_.slot());
      assign_powers(*model_, inputs, decision.schedule);
    }
    span.set_dim(static_cast<std::int64_t>(decision.schedule.size()));
  }

  // S3 — routing over the realized capacities (ladder: Lp -> Greedy).
  {
    obs::Span span("controller.s3_routing", m.s3, state_.slot());
    const std::vector<double>* demand =
        inputs.session_demand_packets.empty() ? nullptr
                                              : &inputs.session_demand_packets;
    RoutingResult routing = run_ladder(
        options_.router == ControllerOptions::Router::Lp, options_.fallbacks,
        m.fallback_s3, decision.fallbacks,
        [&] {
          return lp_route(state_, decision.schedule, decision.admissions,
                          options_.lp, &lp_ws_s3_, demand);
        },
        [&] {
          return greedy_route(state_, decision.schedule, decision.admissions,
                              demand);
        });
    decision.routes = std::move(routing.routes);
    decision.demand_shortfall = std::move(routing.demand_shortfall);
    span.set_dim(static_cast<std::int64_t>(decision.routes.size()));
  }

  // S4 — energy management for the demand the schedule implies under the
  // slot's fault and sleep overlays (compute_energy_demands; ladder:
  // Lp -> Price).
  {
    obs::Span span("controller.s4_energy", m.s4, state_.slot());
    const std::vector<double> demands =
        compute_energy_demands(*model_, decision.schedule, inputs);
    span.set_dim(static_cast<std::int64_t>(demands.size()));
    EnergyLpOptions eopt;
    eopt.decompose = options_.s4_decompose;
    eopt.decompose_min_nodes = options_.s4_decompose_min_nodes;
    EnergyResult energy = run_ladder(
        options_.energy_manager == ControllerOptions::EnergyManager::Lp,
        options_.fallbacks, m.fallback_s4, decision.fallbacks,
        [&] {
          return lp_energy_manage(state_, inputs, demands, eopt, options_.lp,
                                  &lp_ws_s4_);
        },
        [&] { return price_energy_manage(state_, inputs, demands); });
    decision.energy = std::move(energy.decisions);
    decision.grid_total_j = energy.grid_total_j;
    decision.cost = energy.cost;
    decision.unserved_energy_j = energy.unserved_total_j;
    last_grid_j_ = energy.grid_total_j;
  }

  decision.degraded = decision.fallbacks > 0;
  if (decision.degraded) m.degraded.add();

  m.slots.add();
  m.grid_j.add(decision.grid_total_j);
  m.unserved_j.add(decision.unserved_energy_j);
  for (const auto& e : decision.energy) {
    m.renewable_j.add(e.serve_renewable_j);
    m.discharge_j.add(e.discharge_j);
    m.charge_j.add(e.charge_total_j());
    m.curtailed_j.add(e.curtailed_j);
  }

  {
    obs::Span span("state.advance", state_.slot());
    state_.advance(decision);
  }
  return decision;
}

}  // namespace gc::core
