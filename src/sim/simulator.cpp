#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "core/psi.hpp"
#include "core/validate.hpp"
#include "fault/fault_schedule.hpp"
#include "lp/simplex.hpp"
#include "obs/alerts.hpp"
#include "obs/events.hpp"
#include "obs/http_exporter.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "policy/sleep.hpp"
#include "sim/checkpoint.hpp"
#include "sim/supervisor.hpp"
#include "util/fsio.hpp"

namespace gc::sim {

namespace {

// Run-lifecycle robustness observability (docs/ROBUSTNESS.md): resume
// events, corrupt-generation fallbacks, resume-side sink truncation, and
// graceful shutdowns. The supervisor's parent-side restart counters live
// in sim/supervisor.cpp under the same robust.* group.
struct RobustMetrics {
  obs::Counter& resumes = obs::registry().counter("robust.resumes");
  obs::Counter& fallbacks =
      obs::registry().counter("robust.checkpoint_fallbacks");
  obs::Counter& truncated =
      obs::registry().counter("robust.sink_truncated_records");
  obs::Counter& shutdowns =
      obs::registry().counter("robust.graceful_shutdowns");
  obs::Gauge& resumed_slot = obs::registry().gauge("robust.resumed_slot");
};

RobustMetrics& robust_metrics() {
  static thread_local RobustMetrics m;
  return m;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

void record(Metrics& m, const core::NetworkModel& model,
            const core::NetworkState& state, const core::SlotInputs& inputs,
            const core::SlotDecision& decision) {
  m.cost.push_back(decision.cost);
  m.grid_j.push_back(decision.grid_total_j);
  m.q_bs.push_back(state.total_data_queue_bs());
  m.q_users.push_back(state.total_data_queue_users());
  m.battery_bs_j.push_back(state.total_battery_bs_j());
  m.battery_users_j.push_back(state.total_battery_users_j());

  m.cost_avg.add(decision.cost);
  m.q_total_stability.add(state.total_data_queue_bs() +
                          state.total_data_queue_users());
  m.h_total_stability.add(state.total_virtual_queue());
  for (double s : decision.demand_shortfall) m.total_demand_shortfall += s;
  m.total_unserved_energy_j += decision.unserved_energy_j;
  for (const auto& e : decision.energy) m.total_curtailed_j += e.curtailed_j;
  for (const auto& r : decision.routes)
    if (r.rx == model.session(r.session).destination)
      m.total_delivered_packets += r.packets;
  for (const auto& a : decision.admissions) m.total_admitted_packets += a.packets;
  for (int s = 0; s < model.num_sessions(); ++s)
    m.total_offered_packets += model.demand_packets(s, inputs);

  m.timing.s1_s += decision.timing.s1_s;
  m.timing.s2_s += decision.timing.s2_s;
  m.timing.s3_s += decision.timing.s3_s;
  m.timing.s4_s += decision.timing.s4_s;
  m.timing.step_s += decision.timing.step_s;
  ++m.slots;
}

// The k nodes holding the most total data backlog, worst first.
std::vector<std::pair<int, double>> top_backlog_nodes(
    const core::NetworkModel& model, const core::NetworkState& state, int k) {
  std::vector<std::pair<int, double>> backlog;
  backlog.reserve(static_cast<std::size_t>(model.num_nodes()));
  for (int i = 0; i < model.num_nodes(); ++i) {
    double q = 0.0;
    for (int s = 0; s < model.num_sessions(); ++s) q += state.q(i, s);
    if (q > 0.0) backlog.emplace_back(i, q);
  }
  k = std::min<int>(k, static_cast<int>(backlog.size()));
  std::partial_sort(backlog.begin(), backlog.begin() + k, backlog.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  backlog.resize(static_cast<std::size_t>(k));
  return backlog;
}

void trace_slot(obs::TraceSink& sink, int t, const core::NetworkModel& model,
                const core::NetworkState& state,
                const core::SlotDecision& decision, int fault_events,
                int top_k, const obs::SlotAudit* audit,
                const obs::SlotVerdict* verdict,
                const policy::SleepController* sleep) {
  obs::TraceRecord r;
  r.slot = t;
  if (sleep != nullptr) {
    r.has_policy = true;
    r.awake_bs = sleep->awake_count();
    r.asleep_bs = sleep->asleep_count();
    r.waking_bs = sleep->waking_count();
    r.policy_switches = static_cast<double>(sleep->switch_count());
    r.switch_energy_j = sleep->switch_energy_j();
  }
  if (audit != nullptr && verdict != nullptr) {
    r.has_stability = true;
    r.lyapunov = audit->lyapunov;
    r.drift = verdict->drift;
    r.dpp = verdict->dpp;
    r.worst_q_margin = verdict->worst_q_margin;
    r.worst_z_margin_j = verdict->worst_z_margin;
    r.stability_violations =
        verdict->q_violations + verdict->z_violations + verdict->drift_violations;
    r.window_unstable = verdict->window_unstable;
  }
  r.fallbacks = decision.fallbacks;
  r.degraded = decision.degraded;
  r.fault_events = fault_events;
  r.s1_s = decision.timing.s1_s;
  r.s2_s = decision.timing.s2_s;
  r.s3_s = decision.timing.s3_s;
  r.s4_s = decision.timing.s4_s;
  r.step_s = decision.timing.step_s;
  r.q_bs = state.total_data_queue_bs();
  r.q_users = state.total_data_queue_users();
  r.h_total = state.total_virtual_queue();
  r.battery_bs_j = state.total_battery_bs_j();
  r.battery_users_j = state.total_battery_users_j();
  r.grid_j = decision.grid_total_j;
  r.cost = decision.cost;
  r.unserved_j = decision.unserved_energy_j;
  for (const auto& e : decision.energy) r.curtailed_j += e.curtailed_j;
  for (const auto& a : decision.admissions) r.admitted_packets += a.packets;
  for (const auto& rt : decision.routes) {
    r.routed_packets += rt.packets;
    if (rt.rx == model.session(rt.session).destination)
      r.delivered_packets += rt.packets;
  }
  for (double s : decision.demand_shortfall) r.shortfall_packets += s;
  r.scheduled_links = static_cast<int>(decision.schedule.size());
  r.top_backlog = top_backlog_nodes(model, state, top_k);
  sink.write(r);
}

Metrics run_loop(const core::NetworkModel& model,
                 core::LyapunovController& controller, int slots,
                 const SimOptions& options, RandomWaypoint* mobility,
                 net::Topology* topology) {
  GC_CHECK(slots >= 0);
  Metrics m;
  Rng input_rng(options.input_seed);

  // Theory auditor (docs/OBSERVABILITY.md): strict_bounds forces the audit
  // on even in GC_OBS_DISABLE builds (the verdict is what aborts the run;
  // only the stability.* instruments are compiled out there). Built before
  // the resume below so checkpoint v3 can reinstate its accumulators.
  const bool audit_on = options.audit || options.strict_bounds;
  const double lambda = controller.options().allocator.lambda;
  std::unique_ptr<obs::StabilityAuditor> auditor;
  std::vector<double> audit_q, audit_z;
  if (audit_on) {
    obs::AuditConfig cfg = make_audit_config(model, controller.V(), lambda);
    cfg.window_slots = options.audit_window_slots;
    auditor = std::make_unique<obs::StabilityAuditor>(std::move(cfg));
    audit_q.resize(static_cast<std::size_t>(model.num_nodes()) *
                   static_cast<std::size_t>(model.num_sessions()));
    audit_z.resize(static_cast<std::size_t>(model.num_nodes()));
  }

  // Sleep-policy layer (src/policy). Built before the resume below so a
  // v5 checkpoint can reinstate its mode state. An AlwaysOn (or absent)
  // setup builds nothing: the overlay is never filled, the trace carries
  // no policy group and checkpoints no policy section.
  std::unique_ptr<policy::SleepController> sleep;
  if (options.sleep != nullptr && options.sleep->active())
    sleep = std::make_unique<policy::SleepController>(model, *options.sleep,
                                                      controller.V());

  int start_slot = 0;
  if (!options.resume_path.empty()) {
    // Resolve what to resume from (select_resume). With rotation,
    // resume_path is the rotation base and the newest *valid* generation
    // wins — corrupt or truncated tails fall back to older generations.
    // resume_auto (the supervised-restart mode) tolerates a wholly absent
    // checkpoint: the crash may have landed before the first checkpoint
    // was written. A present-but-corrupt single checkpoint throws (there
    // is no older generation to fall back to without rotation).
    const std::optional<ResumeSelection> sel =
        select_resume(options.resume_path, options.checkpoint_rotate);
    // Every refusal below is a CheckpointError with a plain message.
    if (!sel.has_value() && !options.resume_auto)
      throw CheckpointError("no checkpoint found at " + options.resume_path);
    if (sel.has_value()) {
      const Checkpoint& checkpoint = sel->checkpoint;
      const std::string& source = sel->source.file;
      const int skipped_corrupt = sel->skipped_corrupt;
      if (skipped_corrupt > 0)
        robust_metrics().fallbacks.add(skipped_corrupt);
      if (options.allow_swapped_scenario) {
        // Hot-reload resume: the workload fields may have been swapped;
        // only the structural identity must survive.
        if (checkpoint.scenario_structural_hash !=
            options.scenario_structural_hash)
          throw CheckpointError(
              "checkpoint " + source + " has structural scenario hash " +
              hex(checkpoint.scenario_structural_hash) +
              " but this run's scenario is structurally " +
              hex(options.scenario_structural_hash) +
              "; only traffic/tariff fields may be swapped at a resume "
              "boundary");
      } else if (checkpoint.scenario_hash != options.scenario_hash) {
        throw CheckpointError(
            "checkpoint " + source + " was written for scenario hash " +
            hex(checkpoint.scenario_hash) + " but this run is scenario hash " +
            hex(options.scenario_hash) +
            "; resuming under a different scenario spec is refused "
            "(rebuild the checkpoint or match specs)");
      }
      restore_checkpoint(checkpoint, input_rng, controller, m, mobility,
                         topology, auditor.get(), sleep.get(),
                         options.alerts);
      start_slot = checkpoint.next_slot;
      if (start_slot > slots)
        throw CheckpointError("checkpoint at slot " +
                              std::to_string(start_slot) +
                              " is beyond the horizon " +
                              std::to_string(slots));
      robust_metrics().resumes.add();
      robust_metrics().resumed_slot.set(start_slot);
      // Lifecycle event (no seq, so the slot-event stream stays
      // byte-identical to an uninterrupted run's): a newer generation had
      // to be skipped as corrupt to resume here.
      if (skipped_corrupt > 0 && options.events != nullptr)
        options.events->emit_lifecycle(obs::EventKind::kCheckpointFallback,
                                       start_slot, skipped_corrupt, source);
    }
  }
  // Graceful degradation (docs/ROBUSTNESS.md): in validate mode every
  // anomaly must abort loudly; otherwise the state layer repairs NaN /
  // negative values with counters so long unattended runs survive them.
  controller.mutable_state().set_sanitize(!options.validate);
  std::unique_ptr<obs::TraceSink> trace;
  if (!options.trace_path.empty()) {
    // A resumed run cuts the crashed run's trace back to the checkpointed
    // slot (plus any torn tail) so appending from here reproduces an
    // uninterrupted run's file byte for byte.
    const bool resume = options.sink_resume && start_slot > 0;
    trace = std::make_unique<obs::TraceSink>(options.trace_path,
                                             resume ? start_slot : -1);
    const util::JsonlTruncation& cut = trace->resume_cut();
    if (resume && cut.existed)
      robust_metrics().truncated.add(cut.dropped_lines +
                                     (cut.dropped_torn_tail ? 1 : 0));
    if (!trace->appended())
      trace->write_header(options.scenario_name, options.scenario_hash);
  }
  const bool have_faults =
      options.faults != nullptr && !options.faults->empty();

  std::unique_ptr<CheckpointRotator> rotator;
  if (!options.checkpoint_path.empty() && options.checkpoint_rotate > 0)
    rotator = std::make_unique<CheckpointRotator>(options.checkpoint_path,
                                                  options.checkpoint_rotate);
  const auto flush_sinks = [&] {
    obs::Span span("sim.sink_flush");
    if (trace) trace->flush();
    if (options.lp_sink != nullptr) options.lp_sink->flush();
    if (options.events != nullptr) options.events->flush();
  };
  int last_checkpoint_slot = start_slot;
  const auto checkpoint_now = [&](int next_slot) {
    obs::Span span("sim.checkpoint", next_slot);
    // The checkpoint_write event precedes the flush on purpose: the event
    // line is durable before the checkpoint file exists, and resume-side
    // truncation (cut = the checkpoint's next_slot) keeps it because it is
    // stamped with the last slot the checkpoint covers.
    if (options.events != nullptr)
      options.events->emit_slot(obs::EventKind::kCheckpointWrite,
                                next_slot - 1, next_slot);
    // Flush sinks first: after the checkpoint lands, every record up to
    // its slot must already be durable, or a crash right after the write
    // would leave a checkpoint ahead of its sinks.
    flush_sinks();
    Checkpoint c = make_checkpoint(next_slot, input_rng, controller, m,
                                   mobility, topology, auditor.get(),
                                   sleep.get(), options.alerts);
    c.scenario_hash = options.scenario_hash;
    c.scenario_structural_hash = options.scenario_structural_hash;
    if (rotator) {
      rotator->write(c);
    } else {
      save_checkpoint(c, options.checkpoint_path);
    }
    last_checkpoint_slot = next_slot;
  };

  // Live telemetry. Wall-clock rate covers only this process's slots (a
  // resumed run does not claim the checkpointed portion's speed); the grid
  // total does cover the whole run (the series survives the checkpoint).
  std::unique_ptr<obs::SnapshotWriter> snapshots;
  if (!options.snapshot_path.empty())
    snapshots = std::make_unique<obs::SnapshotWriter>(options.snapshot_path,
                                                      options.snapshot_every);
  const obs::Span run_clock(nullptr);
  double grid_total_j = 0.0;
  for (double g : m.grid_j) grid_total_j += g;
  double last_cost = m.cost.empty() ? 0.0 : m.cost.back();
  const auto fill_snapshot_data = [&](int completed_slots) {
    obs::SnapshotData d;
    d.slot = completed_slots;
    d.total_slots = slots;
    d.wall_s = run_clock.elapsed_s();
    const int done_here = completed_slots - start_slot;
    if (d.wall_s > 0.0 && done_here > 0) {
      d.slots_per_s = done_here / d.wall_s;
      d.eta_s = (slots - completed_slots) / d.slots_per_s;
    }
    d.scenario_name = options.scenario_name;
    d.scenario_hash = options.scenario_hash;
    const core::NetworkState& st = controller.state();
    d.have_aggregates = true;
    d.q_total_packets =
        st.total_data_queue_bs() + st.total_data_queue_users();
    d.h_total = st.total_virtual_queue();
    d.battery_total_j = st.total_battery_bs_j() + st.total_battery_users_j();
    d.cost_last = last_cost;
    d.cost_time_avg = m.cost_avg.average();
    d.grid_total_j = grid_total_j;
    if (auditor && auditor->audited_slots() > 0) {
      d.have_stability = true;
      d.worst_q_margin = auditor->run_worst_q_margin();
      d.worst_z_margin_j = auditor->run_worst_z_margin();
      d.q_violations = static_cast<double>(auditor->total_q_violations());
      d.z_violations = static_cast<double>(auditor->total_z_violations());
      d.drift_violations =
          static_cast<double>(auditor->total_drift_violations());
      d.unstable_windows = static_cast<double>(auditor->unstable_windows());
    }
    if (sleep) {
      d.policy_awake_bs = sleep->awake_count();
      d.policy_switches = static_cast<double>(sleep->switch_count());
      d.policy_switch_energy_j = sleep->switch_energy_j();
      d.policy_sleep_slots = static_cast<double>(sleep->sleep_slots());
    }
    d.registry = &obs::registry();
    return d;
  };
  const auto write_snapshot = [&](int completed_slots) {
    snapshots->write(fill_snapshot_data(completed_slots));
  };

  // HTTP exporter payload (obs/http_exporter.hpp), re-rendered and swapped
  // in at every slot boundary. The slots/s EMA lives only here — wall
  // clock never touches Metrics — and the /healthz flip to 503 keys off
  // the alert engine's critical count.
  double healthz_ema_slots_per_s = 0.0;
  double last_publish_wall_s = 0.0;
  const auto publish_ops = [&](int completed_slots) {
    if (options.exporter == nullptr) return;
    const double now_s = run_clock.elapsed_s();
    if (completed_slots > start_slot && now_s > last_publish_wall_s) {
      const double inst = 1.0 / (now_s - last_publish_wall_s);
      healthz_ema_slots_per_s = healthz_ema_slots_per_s == 0.0
                                    ? inst
                                    : 0.2 * inst +
                                          0.8 * healthz_ema_slots_per_s;
    }
    last_publish_wall_s = now_s;
    const obs::SnapshotData d = fill_snapshot_data(completed_slots);
    auto p = std::make_shared<obs::HttpExporter::Payload>();
    p->metrics_text = obs::render_snapshot_prom(d);
    p->snapshot_json = obs::render_snapshot_json(d);
    const int firing =
        options.alerts != nullptr ? options.alerts->firing() : 0;
    const int critical =
        options.alerts != nullptr ? options.alerts->critical_firing() : 0;
    p->healthy = critical == 0;
    const bool checkpointing = !options.checkpoint_path.empty();
    char buf[64];
    std::string h = "{\"status\":\"";
    h += p->healthy ? "ok" : "alerting";
    h += "\",\"slot\":" + std::to_string(completed_slots);
    h += ",\"total_slots\":" + std::to_string(slots);
    std::snprintf(buf, sizeof buf, ",\"slots_per_s\":%.6g",
                  healthz_ema_slots_per_s);
    h += buf;
    h += ",\"checkpoint_age_slots\":" +
         std::to_string(checkpointing
                            ? completed_slots - last_checkpoint_slot
                            : -1);
    h += ",\"restarts\":" + std::to_string(options.restart_count);
    h += ",\"alerts_firing\":" + std::to_string(firing);
    h += ",\"critical_firing\":" + std::to_string(critical);
    h += "}\n";
    p->healthz_json = std::move(h);
    options.exporter->publish(std::move(p));
  };

  // Copy the policy counters into the Metrics on every exit path so the
  // CLI summary (and sweep aggregation) sees them without reaching into
  // the loop-private controller.
  const auto fill_policy_stats = [&] {
    if (!sleep) return;
    m.policy_awake_bs = sleep->awake_count();
    m.policy_switches = sleep->switch_count();
    m.policy_switch_energy_j = sleep->switch_energy_j();
    m.policy_sleep_slots = sleep->sleep_slots();
  };

  // Rebase the alert rules AFTER every resume-time counter bump
  // (robust.resumes, truncation counters) so rules only ever observe
  // in-loop deltas — the alert event stream then replays bit-identically
  // across SIGKILL+resume.
  if (options.alerts != nullptr) options.alerts->rebase(obs::registry());
  std::uint64_t prev_policy_switches = sleep ? sleep->switch_count() : 0;
  publish_ops(start_slot);

  for (int t = start_slot; t < slots; ++t) {
    if (shutdown_requested()) {
      // Signal-safe graceful stop (docs/ROBUSTNESS.md): the handler only
      // set a flag; everything stateful happens here, at a slot boundary.
      // The final checkpoint + flushed sinks make a later resume replay
      // the remaining slots byte-identically.
      if (!options.checkpoint_path.empty())
        checkpoint_now(t);
      else
        flush_sinks();
      if (snapshots) write_snapshot(t);
      publish_ops(t);
      robust_metrics().shutdowns.add();
      if (options.interrupted != nullptr) *options.interrupted = true;
      fill_policy_stats();
      return m;
    }
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
    if (sleep) {
      sleep->decide(t, controller.state(), inputs);
      const std::uint64_t switches = sleep->switch_count();
      if (switches != prev_policy_switches && options.events != nullptr)
        options.events->emit_slot(
            obs::EventKind::kPolicySwitch, t,
            static_cast<double>(switches - prev_policy_switches));
      prev_policy_switches = switches;
    }
    core::SlotDecision decision;
    double drift_bound_rhs = std::numeric_limits<double>::quiet_NaN();
    double pre_lyapunov = std::numeric_limits<double>::quiet_NaN();
    if (options.validate) {
      // validate_decision needs the pre-decision state; copy it after the
      // slot's faults (battery fade) have been imposed.
      const core::NetworkState pre = controller.state();
      decision = controller.step(inputs);
      const auto violations = core::validate_decision(pre, inputs, decision);
      if (!violations.empty()) {
        std::ostringstream os;
        os << "slot " << t << " violations:";
        for (const auto& v : violations) os << "\n  " << v;
        GC_CHECK_MSG(false, os.str());
      }
      if (auditor) {
        // The Lemma-1 sample-path RHS, B + Psi1..Psi4 at the pre-state —
        // only affordable here, where the pre-state copy already exists.
        {
          obs::Span span("audit.lyapunov", t);
          pre_lyapunov = core::lyapunov(pre);
        }
        drift_bound_rhs = model.drift_constant_B() +
                          core::psi1_hat(pre, decision.schedule) +
                          core::psi2_hat(pre, lambda, decision.admissions) +
                          core::psi3_hat(pre, decision.routes) +
                          core::psi4_hat(pre, decision.energy);
      }
    } else {
      decision = controller.step(inputs);
    }
    {
      obs::Span span("sim.record", t);
      record(m, model, controller.state(), inputs, decision);
    }
    last_cost = decision.cost;
    grid_total_j += decision.grid_total_j;
    if (decision.fallbacks > 0 && options.events != nullptr)
      options.events->emit_slot(obs::EventKind::kLpFallback, t,
                                decision.fallbacks,
                                decision.degraded ? "degraded" : "recovered");

    obs::SlotAudit audit;
    obs::SlotVerdict verdict;
    if (auditor) {
      const core::NetworkState& st = controller.state();
      const int S = model.num_sessions();
      for (int i = 0; i < model.num_nodes(); ++i) {
        for (int s = 0; s < S; ++s)
          audit_q[static_cast<std::size_t>(i * S + s)] = st.q(i, s);
        audit_z[static_cast<std::size_t>(i)] = st.z(i);
      }
      audit.slot = t;
      audit.q = &audit_q;
      audit.z = &audit_z;
      {
        obs::Span span("audit.lyapunov", t);
        audit.lyapunov = core::lyapunov(st);
      }
      audit.cost = decision.cost;
      for (const auto& a : decision.admissions)
        audit.admitted_packets += a.packets;
      audit.total_backlog =
          st.total_data_queue_bs() + st.total_data_queue_users();
      audit.drift_bound_rhs = drift_bound_rhs;
      audit.pre_lyapunov = pre_lyapunov;
      verdict = auditor->observe(audit);
      if (verdict.any_violation() && options.events != nullptr)
        options.events->emit_slot(
            obs::EventKind::kBoundViolation, t,
            verdict.q_violations + verdict.z_violations +
                verdict.drift_violations,
            verdict.window_unstable ? "window_unstable" : "");
      if (options.strict_bounds && verdict.any_violation()) {
        // Annotate masked (sleeping/waking) base stations: their queues
        // are frozen by the policy layer, so a bound violation there
        // points at the policy interaction, not the controller.
        const auto masked = [&](int node) {
          return sleep && node < sleep->num_bs() &&
                 sleep->mode(node) != policy::SleepController::Mode::Awake;
        };
        GC_CHECK_MSG(
            false,
            auditor->describe_violation(
                audit, verdict,
                [S, &masked](int i) {
                  return "node " + std::to_string(i / S) + " session " +
                         std::to_string(i % S) +
                         (masked(i / S) ? " (BS masked by sleep policy)"
                                        : "");
                },
                [&masked](int i) {
                  return "node " + std::to_string(i) +
                         (masked(i) ? " (BS masked by sleep policy)" : "");
                }));
      }
    }
    if (trace)
      trace_slot(*trace, t, model, controller.state(), decision,
                 fault_events, options.trace_top_k,
                 auditor ? &audit : nullptr, auditor ? &verdict : nullptr,
                 sleep.get());
    // Alert evaluation closes the slot BEFORE any checkpoint is cut, so
    // the checkpointed engine state always reflects every completed slot
    // and a resume replays the fire/clear edges exactly.
    if (options.alerts != nullptr)
      options.alerts->evaluate(obs::registry(), t, options.events);
    if (!options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
        (t + 1) % options.checkpoint_every == 0 && t + 1 < slots)
      checkpoint_now(t + 1);
    if (snapshots && snapshots->due(t + 1) && t + 1 < slots)
      write_snapshot(t + 1);
    publish_ops(t + 1);
  }
  // Either way every sink ends flushed and checked: a full disk fails the
  // run instead of a destructor dropping its last lines unnoticed.
  if (!options.checkpoint_path.empty())
    checkpoint_now(slots);
  else
    flush_sinks();
  if (snapshots) write_snapshot(slots);
  publish_ops(slots);
  fill_policy_stats();
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
  meta.nodes = model.num_nodes();
  for (int i = 0; i < model.num_nodes(); ++i)
    for (int j = 0; j < model.num_nodes(); ++j)
      if (i != j && model.link_allowed(i, j)) ++meta.links;
  if (const net::LinkPruneMap* prune = model.pruned_links())
    meta.links_pruned = prune->pruned_links();
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

}  // namespace gc::sim
