#include "sim/simulator.hpp"

#include <algorithm>
#include <csignal>
#include <limits>
#include <memory>
#include <sstream>

#include "core/psi.hpp"
#include "core/validate.hpp"
#include "fault/fault_schedule.hpp"
#include "obs/profile.hpp"
#include "obs/timer.hpp"
#include "policy/sleep.hpp"
#include "sim/checkpoint.hpp"
#include "sim/slot_output.hpp"
#include "sim/supervisor.hpp"
#include "util/fsio.hpp"

namespace gc::sim {

namespace {

void record(Metrics& m, const core::NetworkModel& model,
            const core::SlotInputs& inputs, const core::SlotDecision& decision,
            const SlotTotals& totals) {
  m.cost.push_back(decision.cost);
  m.grid_j.push_back(decision.grid_total_j);
  m.q_bs.push_back(totals.q_bs);
  m.q_users.push_back(totals.q_users);
  m.battery_bs_j.push_back(totals.battery_bs_j);
  m.battery_users_j.push_back(totals.battery_users_j);

  m.cost_avg.add(decision.cost);
  m.q_total_stability.add(totals.q_bs + totals.q_users);
  m.h_total_stability.add(totals.h_total);
  // The run totals add element by element, not the slot totals: that is
  // the floating-point sum checkpoints and CSVs have always carried.
  for (double s : decision.demand_shortfall) m.total_demand_shortfall += s;
  m.total_unserved_energy_j += decision.unserved_energy_j;
  for (const auto& e : decision.energy) m.total_curtailed_j += e.curtailed_j;
  for (const auto& r : decision.routes)
    if (r.rx == model.session(r.session).destination)
      m.total_delivered_packets += r.packets;
  for (const auto& a : decision.admissions) m.total_admitted_packets += a.packets;
  for (int s = 0; s < model.num_sessions(); ++s)
    m.total_offered_packets += model.demand_packets(s, inputs);
  ++m.slots;
}

// One controller step. Under --validate the decision is checked against
// the P1 constraints (CheckError listing the violations) and the audit
// gets the Lemma-1 sample-path RHS, B + Psi1..Psi4 at the pre-decision
// state — only affordable there, where the pre-state copy already exists.
struct Step {
  core::SlotDecision decision;
  double drift_bound_rhs = std::numeric_limits<double>::quiet_NaN();
  double pre_lyapunov = std::numeric_limits<double>::quiet_NaN();
};

Step step(const core::NetworkModel& model,
          core::LyapunovController& controller,
          const core::SlotInputs& inputs, bool validate, int t) {
  Step out;
  if (!validate) {
    out.decision = controller.step(inputs);
    return out;
  }
  // validate_decision needs the pre-decision state; copy it after the
  // slot's faults (battery fade) have been imposed.
  const core::NetworkState pre = controller.state();
  out.decision = controller.step(inputs);
  const auto violations = core::validate_decision(pre, inputs, out.decision);
  if (!violations.empty()) {
    std::ostringstream os;
    os << "slot " << t << " violations:";
    for (const auto& v : violations) os << "\n  " << v;
    GC_CHECK_MSG(false, os.str());
  }
  {
    obs::Span span("audit.lyapunov", t,
                   static_cast<std::int64_t>(pre.g_entries().size()));
    out.pre_lyapunov = core::lyapunov(pre);
  }
  const core::SlotDecision& d = out.decision;
  out.drift_bound_rhs =
      model.drift_constant_B() + core::psi1_hat(pre, d.schedule) +
      core::psi2_hat(pre, controller.options().allocator.lambda,
                     d.admissions) +
      core::psi3_hat(pre, d.routes) + core::psi4_hat(pre, d.energy);
  return out;
}

// The auditor's view of the post-slot state. `q` and `z` are the flat
// queue buffers the audit points at (node * S + session, and node).
obs::SlotAudit audit_view(int t, const core::NetworkModel& model,
                          const core::NetworkState& st, const Step& step,
                          const SlotTotals& totals, std::vector<double>& q,
                          std::vector<double>& z) {
  // The state's table has the audit's layout (+0.0 at destinations).
  std::copy(st.q_table().begin(), st.q_table().end(), q.begin());
  for (int i = 0; i < model.num_nodes(); ++i)
    z[static_cast<std::size_t>(i)] = st.z(i);
  obs::SlotAudit audit;
  audit.slot = t;
  audit.q = &q;
  audit.z = &z;
  {
    obs::Span span("audit.lyapunov", t,
                   static_cast<std::int64_t>(st.g_entries().size()));
    audit.lyapunov = core::lyapunov(st);
  }
  audit.cost = step.decision.cost;
  audit.admitted_packets = totals.admitted_packets;
  audit.total_backlog = totals.q_bs + totals.q_users;
  audit.drift_bound_rhs = step.drift_bound_rhs;
  audit.pre_lyapunov = step.pre_lyapunov;
  return audit;
}

// The slot loop: sample, overlay faults, run the sleep policy, step,
// record, audit, and hand the slot to the outputs (sim/slot_output.hpp).
Metrics run_loop(const core::NetworkModel& model,
                 core::LyapunovController& controller, int slots,
                 const SimOptions& options, RandomWaypoint* mobility,
                 net::Topology* topology) {
  GC_CHECK(slots >= 0);
  Metrics m;
  Rng input_rng(options.input_seed);
  // The auditor and the sleep policy exist before the resume, which
  // reinstates their checkpointed state. An AlwaysOn (or absent) sleep
  // setup builds no controller, so the run is a policy-free one.
  obs::AuditConfig audit_cfg = make_audit_config(
      model, controller.V(), controller.options().allocator.lambda);
  audit_cfg.window_slots = options.audit_window_slots;
  obs::StabilityAuditor auditor(std::move(audit_cfg));
  std::unique_ptr<policy::SleepController> sleep;
  if (options.sleep != nullptr && options.sleep->active())
    sleep = std::make_unique<policy::SleepController>(model, *options.sleep,
                                                      controller.V());
  const int start_slot =
      resume_run(options, slots, input_rng, controller, m, mobility, topology,
                 &auditor, sleep.get());
  // Graceful degradation (docs/ROBUSTNESS.md): in validate mode every
  // anomaly must abort loudly; otherwise the state layer repairs NaN /
  // negative values with counters so long unattended runs survive them.
  controller.mutable_state().set_sanitize(!options.validate);
  const std::unique_ptr<SlotOutputs> outputs = make_slot_outputs(
      options, RunState{model, controller, input_rng, m, mobility, topology,
                        auditor, sleep.get(), slots});
  outputs->begin(start_slot);

  const bool have_faults =
      options.faults != nullptr && !options.faults->empty();
  std::vector<double> audit_q(static_cast<std::size_t>(model.num_nodes()) *
                              static_cast<std::size_t>(model.num_sessions()));
  std::vector<double> audit_z(static_cast<std::size_t>(model.num_nodes()));
  std::uint64_t switches = sleep ? sleep->switch_count() : 0;
  int t = start_slot;
  // A graceful-shutdown request (docs/ROBUSTNESS.md) only sets a flag; the
  // loop stops at the next slot boundary and the outputs' finish writes
  // the final checkpoint, so a later resume replays the rest identically.
  for (; t < slots && !shutdown_requested(); ++t) {
    obs::Span slot_span("sim.slot", t, model.num_nodes());
    if (mobility && t > 0) {
      obs::Span span("sim.mobility", t);
      mobility->advance(model.slot_seconds(), *topology);
    }
    core::SlotInputs inputs;
    {
      obs::Span span("sim.sample", t);
      inputs = model.sample_inputs(t, input_rng);
    }
    int fault_events = 0;
    if (have_faults) {
      const fault::SlotFaults faults = options.faults->at(t);
      // Kill-chaos injection: die exactly like a crash would — no flush,
      // no checkpoint, no unwinding. Skipped ordinals are kills already
      // survived by earlier attempts of a supervised run.
      if (faults.kill_ordinal >= 0 &&
          faults.kill_ordinal >= options.process_kill_skip)
        std::raise(SIGKILL);
      fault_events = faults.active_events;
      fault::apply_slot_faults(faults, inputs, controller.mutable_state());
    }
    // Sleep policy runs after the fault overlay (a down BS is forced
    // toward Awake so it wakes into the outage) and before the controller
    // observes the inputs.
    std::uint64_t slot_switches = 0;
    if (sleep) {
      sleep->decide(t, controller.state(), inputs);
      slot_switches = sleep->switch_count() - switches;
      switches = sleep->switch_count();
    }
    const Step s = step(model, controller, inputs, options.validate, t);
    const core::NetworkState& st = controller.state();
    SlotTotals totals;
    {
      obs::Span span("sim.record", t);
      totals = slot_totals(model, st, s.decision);
      record(m, model, inputs, s.decision, totals);
    }
    const obs::SlotAudit audit =
        audit_view(t, model, st, s, totals, audit_q, audit_z);
    const obs::SlotVerdict verdict = auditor.observe(audit);
    outputs->after_slot(SlotView{t, s.decision, st, fault_events,
                                 slot_switches, audit, verdict, m, totals});
  }
  const bool interrupted = t < slots;
  outputs->finish(t, interrupted);
  if (interrupted) {
    robust_metrics().shutdowns.add();
    if (options.interrupted != nullptr) *options.interrupted = true;
  }
  // The policy counters reach the Metrics (and so the CLI summary and
  // the profile meta) without anyone reaching into the loop's controller.
  if (sleep) {
    m.policy_awake_bs = sleep->awake_count();
    m.policy_switches = sleep->switch_count();
    m.policy_switch_energy_j = sleep->switch_energy_j();
    m.policy_sleep_slots = sleep->sleep_slots();
  }
  return m;
}

}  // namespace

obs::AuditConfig make_audit_config(const core::NetworkModel& model, double V,
                                   double lambda) {
  obs::AuditConfig c;
  c.V = V;
  c.lambda = lambda;
  const int n = model.num_nodes();
  const int S = model.num_sessions();

  // Deterministic queue bounds. A source queue stops admitting as soon as
  // Q >= lambda * V, so it never exceeds lambda * V + K_s^max. Relays only
  // receive while Q_rx < Q_tx (the differential-backlog rule of S3), so a
  // relay can overshoot the sender's level by at most one slot's in-flow
  // (R_i radios, each landing at most the best inbound link's packets);
  // chained over at most n hops that is an n * in-flow allowance. Without
  // multihop only sources and (always-empty) destinations hold packets.
  c.q_bound.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(S));
  for (int i = 0; i < n; ++i) {
    const double relay = model.config().multihop
                             ? static_cast<double>(n) * model.num_radios(i) *
                                   model.max_in_link_packets(i)
                             : 0.0;
    for (int s = 0; s < S; ++s)
      c.q_bound[static_cast<std::size_t>(i * S + s)] =
          lambda * V + model.session(s).max_admit_packets + relay;
  }

  // Shifted-battery range (Section IV-B): z = x - shift with
  // shift = V * gamma_max + d_i^max, and x in [0, capacity].
  c.z_min.resize(static_cast<std::size_t>(n));
  c.z_max.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double shift = model.shift_j(i, V);
    c.z_min[static_cast<std::size_t>(i)] = -shift;
    c.z_max[static_cast<std::size_t>(i)] =
        model.node(i).battery.capacity_j - shift;
  }
  return c;
}

obs::ProfileMeta make_profile_meta(const std::string& scenario,
                                   const core::NetworkModel& model, int slots,
                                   double wall_s, std::int64_t spans_dropped) {
  obs::ProfileMeta meta;
  meta.scenario = scenario;
  const int n = model.num_nodes();
  meta.nodes = n;
  // NetworkModel::link_allowed in closed form: every ordered pair under
  // multihop; one-hop allows only BS -> (user destination) downlinks.
  if (model.config().multihop) {
    meta.links = n * (n - 1);
  } else {
    int user_destinations = 0;
    for (int j = model.num_base_stations(); j < n; ++j)
      if (model.is_destination(j)) ++user_destinations;
    meta.links = model.num_base_stations() * user_destinations;
  }
  if (const net::LinkPruneMap* prune = model.pruned_links()) {
    // Screens all n^2 pairs once; the slot path never does.
    obs::Span span("net.prune_count", -1, prune->total_links());
    meta.links_pruned = prune->pruned_links();
  }
  meta.sessions = model.num_sessions();
  meta.slots = slots;
  meta.wall_s = wall_s;
  meta.slots_per_s = wall_s > 0.0 ? slots / wall_s : 0.0;
  meta.spans_dropped = spans_dropped;
  return meta;
}

void write_profile_files(const std::string& path,
                         const obs::Profile& profile) {
  util::write_file_atomic(path, profile.to_json(), "profile");
  util::write_file_atomic(path + ".collapsed", profile.to_collapsed(),
                          "collapsed profile");
}

Metrics run_simulation(const core::NetworkModel& model,
                       core::LyapunovController& controller, int slots,
                       const SimOptions& options) {
  return run_loop(model, controller, slots, options, nullptr, nullptr);
}

Metrics run_simulation_mobile(core::NetworkModel& model,
                              core::LyapunovController& controller,
                              int slots, const MobilityConfig& mobility,
                              const SimOptions& options) {
  RandomWaypoint walker(mobility, model.topology(), options.input_seed + 77);
  return run_loop(model, controller, slots, options, &walker,
                  &model.mutable_topology());
}

Metrics run_job(const SimJob& job) {
  core::NetworkModel model = job.scenario.build();
  const core::ControllerOptions opts =
      job.controller ? *job.controller : job.scenario.controller_options();
  core::LyapunovController controller(model, job.V, opts);
  if (job.mobility)
    return run_simulation_mobile(model, controller, job.slots, *job.mobility,
                                 job.sim);
  return run_simulation(model, controller, job.slots, job.sim);
}

}  // namespace gc::sim
