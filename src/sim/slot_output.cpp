#include "sim/slot_output.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "lp/simplex.hpp"
#include "obs/alerts.hpp"
#include "obs/events.hpp"
#include "obs/http_exporter.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "policy/sleep.hpp"
#include "sim/checkpoint.hpp"

namespace gc::sim {

namespace {

// The state sums of SlotTotals (the decision sums stay 0).
SlotTotals state_totals(const core::NetworkState& state) {
  SlotTotals t;
  t.q_bs = state.total_data_queue_bs();
  t.q_users = state.total_data_queue_users();
  t.h_total = state.total_virtual_queue();
  t.battery_bs_j = state.total_battery_bs_j();
  t.battery_users_j = state.total_battery_users_j();
  return t;
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

// Slot events: policy switches, LP fallback-ladder drops and bound
// violations (checkpoint writes come from CheckpointWriter, alerts from
// AlertOutput).
class JournalOutput : public SlotOutput {
 public:
  explicit JournalOutput(obs::EventJournal& events) : events_(events) {}

  void after_slot(const SlotView& v) override {
    if (v.policy_switches > 0)
      events_.emit_slot(obs::EventKind::kPolicySwitch, v.t,
                        static_cast<double>(v.policy_switches));
    if (v.decision.fallbacks > 0)
      events_.emit_slot(obs::EventKind::kLpFallback, v.t, v.decision.fallbacks,
                        v.decision.degraded ? "degraded" : "recovered");
    if (v.verdict.any_violation())
      events_.emit_slot(obs::EventKind::kBoundViolation, v.t,
                        v.verdict.q_violations + v.verdict.z_violations +
                            v.verdict.drift_violations,
                        v.verdict.window_unstable ? "window_unstable" : "");
  }
  void before_checkpoint(int) override { events_.flush(); }

 private:
  obs::EventJournal& events_;
};

// --strict-bounds: a CheckError naming the worst violated bound.
class StrictBoundsOutput : public SlotOutput {
 public:
  explicit StrictBoundsOutput(const RunState& run) : run_(run) {}

  void after_slot(const SlotView& v) override {
    if (!v.verdict.any_violation()) return;
    // Annotate masked (sleeping/waking) base stations: their queues are
    // frozen by the policy layer, so a bound violation there points at the
    // policy interaction, not the controller.
    const policy::SleepController* sleep = run_.sleep;
    const auto masked = [sleep](int node) {
      return sleep != nullptr && node < sleep->num_bs() &&
             sleep->mode(node) != policy::SleepController::Mode::Awake;
    };
    const int S = run_.model.num_sessions();
    GC_CHECK_MSG(
        false,
        run_.auditor.describe_violation(
            v.audit, v.verdict,
            [S, &masked](int i) {
              return "node " + std::to_string(i / S) + " session " +
                     std::to_string(i % S) +
                     (masked(i / S) ? " (BS masked by sleep policy)" : "");
            },
            [&masked](int i) {
              return "node " + std::to_string(i) +
                     (masked(i) ? " (BS masked by sleep policy)" : "");
            }));
  }

 private:
  const RunState run_;
};

// --trace: one JSONL record per slot (obs::TraceSink).
class TraceOutput : public SlotOutput {
 public:
  TraceOutput(const SimOptions& options, const RunState& run)
      : options_(options), run_(run) {}

  void begin(int resume_slot) override {
    // An auto-resumed run cuts the crashed run's trace back to the
    // checkpointed slot (plus any torn tail) so appending from here
    // reproduces an uninterrupted run's file byte for byte.
    const bool resume = options_.resume_auto && resume_slot > 0;
    sink_ = std::make_unique<obs::TraceSink>(options_.trace_path,
                                             resume ? resume_slot : -1);
    const util::JsonlTruncation& cut = sink_->resume_cut();
    if (resume && cut.existed)
      robust_metrics().truncated.add(cut.dropped_lines +
                                     (cut.dropped_torn_tail ? 1 : 0));
    if (!sink_->appended())
      sink_->write_header(options_.scenario_name, options_.scenario_hash);
  }

  void after_slot(const SlotView& v) override {
    obs::TraceRecord r;
    r.slot = v.t;
    if (const policy::SleepController* sleep = run_.sleep) {
      r.has_policy = true;
      r.awake_bs = sleep->awake_count();
      r.asleep_bs = sleep->asleep_count();
      r.waking_bs = sleep->waking_count();
      r.policy_switches = static_cast<double>(sleep->switch_count());
      r.switch_energy_j = sleep->switch_energy_j();
    }
    const obs::SlotVerdict& verdict = v.verdict;
    r.lyapunov = v.audit.lyapunov;
    r.drift = verdict.drift;
    r.dpp = verdict.dpp;
    r.worst_q_margin = verdict.worst_q_margin;
    r.worst_z_margin_j = verdict.worst_z_margin;
    r.stability_violations =
        verdict.q_violations + verdict.z_violations + verdict.drift_violations;
    r.window_unstable = verdict.window_unstable;
    const core::SlotDecision& decision = v.decision;
    r.fallbacks = decision.fallbacks;
    r.degraded = decision.degraded;
    r.fault_events = v.fault_events;
    r.s1_s = decision.timing.s1_s;
    r.s2_s = decision.timing.s2_s;
    r.s3_s = decision.timing.s3_s;
    r.s4_s = decision.timing.s4_s;
    r.step_s = decision.timing.step_s;
    const SlotTotals& totals = v.totals;
    r.q_bs = totals.q_bs;
    r.q_users = totals.q_users;
    r.h_total = totals.h_total;
    r.battery_bs_j = totals.battery_bs_j;
    r.battery_users_j = totals.battery_users_j;
    r.grid_j = decision.grid_total_j;
    r.cost = decision.cost;
    r.unserved_j = decision.unserved_energy_j;
    r.curtailed_j = totals.curtailed_j;
    r.admitted_packets = totals.admitted_packets;
    r.routed_packets = totals.routed_packets;
    r.delivered_packets = totals.delivered_packets;
    r.shortfall_packets = totals.shortfall_packets;
    r.scheduled_links = static_cast<int>(decision.schedule.size());
    r.top_backlog =
        top_backlog_nodes(run_.model, v.state, options_.trace_top_k);
    sink_->write(r);
  }
  void before_checkpoint(int) override { sink_->flush(); }

 private:
  const SimOptions& options_;
  const RunState run_;
  std::unique_ptr<obs::TraceSink> sink_;
};

// --lp-log: the controller writes the solve log; the run only makes it
// durable.
class LpLogFlush : public SlotOutput {
 public:
  explicit LpLogFlush(lp::SolveStatsSink& sink) : sink_(sink) {}
  void before_checkpoint(int) override { sink_.flush(); }

 private:
  lp::SolveStatsSink& sink_;
};

// --alerts: rebased once the resume-time counters (robust.resumes,
// truncation counters) are in, so rules only ever observe in-loop deltas
// and the alert event stream replays bit-identically across a kill. Each
// slot is evaluated before any checkpoint is cut, so the checkpointed
// engine state reflects every completed slot.
class AlertOutput : public SlotOutput {
 public:
  AlertOutput(obs::AlertEngine& alerts, obs::EventJournal* events)
      : alerts_(alerts), events_(events) {}
  void begin(int) override { alerts_.rebase(obs::registry()); }
  void after_slot(const SlotView& v) override {
    alerts_.evaluate(obs::registry(), v.t, events_);
  }

 private:
  obs::AlertEngine& alerts_;
  obs::EventJournal* events_;
};

// Checkpoints every `checkpoint_every` slots and at the end of the run. A
// run without a checkpoint path only flushes the outputs at its end, so
// every sink ends flushed and checked: a full disk fails the run instead
// of a destructor dropping its last lines unnoticed.
class CheckpointWriter : public SlotOutput {
 public:
  CheckpointWriter(const SimOptions& options, const RunState& run,
                   SlotOutputs& outputs)
      : options_(options),
        run_(run),
        outputs_(outputs),
        rotator_(options.checkpoint_path) {}

  void after_slot(const SlotView& v) override {
    const int next = v.t + 1;
    if (!options_.checkpoint_path.empty() && options_.checkpoint_every > 0 &&
        next % options_.checkpoint_every == 0 && next < run_.slots)
      write(next);
  }
  void finish(int completed_slots, bool) override {
    if (options_.checkpoint_path.empty())
      outputs_.flush(completed_slots);
    else
      write(completed_slots);
  }

 private:
  void write(int next_slot) {
    obs::Span span("sim.checkpoint", next_slot);
    // The checkpoint_write event precedes the flush on purpose: the event
    // line is durable before the checkpoint file exists, and resume-side
    // truncation (cut = the checkpoint's next_slot) keeps it because it is
    // stamped with the last slot the checkpoint covers.
    if (options_.events != nullptr)
      options_.events->emit_slot(obs::EventKind::kCheckpointWrite,
                                 next_slot - 1, next_slot);
    // Flush first: after the checkpoint lands, every record up to its slot
    // must already be durable, or a crash right after the write would
    // leave a checkpoint ahead of its sinks.
    outputs_.flush(next_slot);
    Checkpoint c = make_checkpoint(next_slot, run_.input_rng, run_.controller,
                                   run_.metrics, run_.mobility, run_.topology,
                                   &run_.auditor, run_.sleep, options_.alerts);
    c.scenario_hash = options_.scenario_hash;
    c.scenario_structural_hash = options_.scenario_structural_hash;
    rotator_.write(c);
  }

  const SimOptions& options_;
  const RunState run_;
  SlotOutputs& outputs_;
  const CheckpointRotator rotator_;
};

// What a snapshot reports between slot boundaries. The wall-clock rate
// covers only this process's slots (a resumed run does not claim the
// checkpointed portion's speed); the grid total covers the whole run (the
// series survives the checkpoint).
class SnapshotFeed {
 public:
  SnapshotFeed(const SimOptions& options, const RunState& run)
      : options_(options), run_(run) {}

  void begin(int resume_slot) {
    start_slot_ = resume_slot;
    for (double g : run_.metrics.grid_j) grid_total_j_ += g;
    if (!run_.metrics.cost.empty()) last_cost_ = run_.metrics.cost.back();
    totals_ = state_totals(run_.controller.state());
  }
  void observe(const SlotView& v) {
    last_cost_ = v.decision.cost;
    grid_total_j_ += v.decision.grid_total_j;
    totals_ = v.totals;
  }
  double elapsed_s() const { return clock_.elapsed_s(); }

  obs::SnapshotData data(int completed_slots) const {
    obs::SnapshotData d;
    d.slot = completed_slots;
    d.total_slots = run_.slots;
    d.wall_s = clock_.elapsed_s();
    const int done_here = completed_slots - start_slot_;
    if (d.wall_s > 0.0 && done_here > 0) {
      d.slots_per_s = done_here / d.wall_s;
      d.eta_s = (run_.slots - completed_slots) / d.slots_per_s;
    }
    d.scenario_name = options_.scenario_name;
    d.scenario_hash = options_.scenario_hash;
    d.have_aggregates = true;
    d.q_total_packets = totals_.q_bs + totals_.q_users;
    d.h_total = totals_.h_total;
    d.battery_total_j = totals_.battery_bs_j + totals_.battery_users_j;
    d.cost_last = last_cost_;
    d.cost_time_avg = run_.metrics.cost_avg.average();
    d.grid_total_j = grid_total_j_;
    const obs::StabilityAuditor& auditor = run_.auditor;
    if (auditor.audited_slots() > 0) {
      d.have_stability = true;
      d.worst_q_margin = auditor.run_worst_q_margin();
      d.worst_z_margin_j = auditor.run_worst_z_margin();
      d.q_violations = static_cast<double>(auditor.total_q_violations());
      d.z_violations = static_cast<double>(auditor.total_z_violations());
      d.drift_violations =
          static_cast<double>(auditor.total_drift_violations());
      d.unstable_windows = static_cast<double>(auditor.unstable_windows());
    }
    if (const policy::SleepController* sleep = run_.sleep) {
      d.policy_awake_bs = sleep->awake_count();
      d.policy_switches = static_cast<double>(sleep->switch_count());
      d.policy_switch_energy_j = sleep->switch_energy_j();
      d.policy_sleep_slots = static_cast<double>(sleep->sleep_slots());
    }
    d.registry = &obs::registry();
    return d;
  }

 private:
  const SimOptions& options_;
  const RunState run_;
  const obs::Span clock_{nullptr};
  int start_slot_ = 0;
  double grid_total_j_ = 0.0;
  double last_cost_ = 0.0;
  SlotTotals totals_;
};

// --snapshot and --metrics-port, read from one SnapshotFeed. Each
// boundary writes the snapshot when it is due (every `snapshot_every`
// slots and once at the end), then swaps in the exporter's immutable
// payload (metrics text, snapshot JSON, healthz); readers never block the
// loop. The slots/s average lives only here — wall clock never touches
// Metrics — and /healthz flips to 503 on the alert engine's critical
// count.
class LiveOutput : public SlotOutput {
 public:
  LiveOutput(const SimOptions& options, const RunState& run)
      : options_(options), feed_(options, run), slots_(run.slots) {
    if (!options.snapshot_path.empty())
      writer_.emplace(options.snapshot_path, options.snapshot_every);
  }

  void begin(int resume_slot) override {
    feed_.begin(resume_slot);
    last_checkpoint_slot_ = resume_slot;
    publish(resume_slot);
  }
  void after_slot(const SlotView& v) override {
    feed_.observe(v);
    const int done = v.t + 1;
    if (writer_ && writer_->due(done) && done < slots_)
      writer_->write(feed_.data(done));
    publish(done);
  }
  void before_checkpoint(int next_slot) override {
    last_checkpoint_slot_ = next_slot;
  }
  void finish(int completed_slots, bool) override {
    if (writer_) writer_->write(feed_.data(completed_slots));
    publish(completed_slots);
  }

 private:
  void publish(int completed_slots) {
    if (options_.exporter == nullptr) return;
    obs::HealthzData h;
    h.slots_per_s = rate_.observe(completed_slots, feed_.elapsed_s());
    const obs::SnapshotData d = feed_.data(completed_slots);
    auto p = std::make_shared<obs::HttpExporter::Payload>();
    p->metrics_text = obs::render_snapshot_prom(d);
    p->snapshot_json = obs::render_snapshot_json(d);
    if (const obs::AlertEngine* alerts = options_.alerts) {
      h.alerts_firing = alerts->firing();
      h.critical_firing = alerts->critical_firing();
    }
    h.healthy = p->healthy = h.critical_firing == 0;
    h.slot = completed_slots;
    h.total_slots = slots_;
    if (!options_.checkpoint_path.empty())
      h.checkpoint_age_slots = completed_slots - last_checkpoint_slot_;
    h.restarts = options_.process_kill_skip;
    p->healthz_json = obs::render_healthz_json(h);
    options_.exporter->publish(std::move(p));
  }

  const SimOptions& options_;
  SnapshotFeed feed_;
  std::optional<obs::SnapshotWriter> writer_;
  obs::SlotRate rate_;
  int slots_;
  int last_checkpoint_slot_ = 0;
};

}  // namespace

SlotTotals slot_totals(const core::NetworkModel& model,
                       const core::NetworkState& state,
                       const core::SlotDecision& decision) {
  SlotTotals t = state_totals(state);
  for (const auto& e : decision.energy) t.curtailed_j += e.curtailed_j;
  for (const auto& a : decision.admissions) t.admitted_packets += a.packets;
  for (const auto& r : decision.routes) {
    t.routed_packets += r.packets;
    if (r.rx == model.session(r.session).destination)
      t.delivered_packets += r.packets;
  }
  for (double s : decision.demand_shortfall) t.shortfall_packets += s;
  return t;
}

void SlotOutputs::add(std::unique_ptr<SlotOutput> output) {
  outputs_.push_back(std::move(output));
}

void SlotOutputs::begin(int resume_slot) {
  for (const auto& o : outputs_) o->begin(resume_slot);
}

void SlotOutputs::after_slot(const SlotView& view) {
  for (const auto& o : outputs_) o->after_slot(view);
}

void SlotOutputs::flush(int next_slot) {
  obs::Span span("sim.sink_flush");
  for (const auto& o : outputs_) o->before_checkpoint(next_slot);
}

void SlotOutputs::finish(int completed_slots, bool interrupted) {
  for (const auto& o : outputs_) o->finish(completed_slots, interrupted);
}

std::unique_ptr<SlotOutputs> make_slot_outputs(const SimOptions& options,
                                               const RunState& run) {
  auto outputs = std::make_unique<SlotOutputs>();
  if (options.events != nullptr)
    outputs->add(std::make_unique<JournalOutput>(*options.events));
  if (options.strict_bounds)
    outputs->add(std::make_unique<StrictBoundsOutput>(run));
  if (!options.trace_path.empty())
    outputs->add(std::make_unique<TraceOutput>(options, run));
  if (options.lp_sink != nullptr)
    outputs->add(std::make_unique<LpLogFlush>(*options.lp_sink));
  if (options.alerts != nullptr)
    outputs->add(
        std::make_unique<AlertOutput>(*options.alerts, options.events));
  outputs->add(std::make_unique<CheckpointWriter>(options, run, *outputs));
  if (!options.snapshot_path.empty() || options.exporter != nullptr)
    outputs->add(std::make_unique<LiveOutput>(options, run));
  return outputs;
}

}  // namespace gc::sim
