// Slot-driven simulator: samples the random processes, runs a controller,
// validates (optionally), and records the series the paper's Fig. 2 plots.
#pragma once

#include <cstdint>
#include <vector>

#include "core/controller.hpp"
#include "core/model.hpp"
#include "obs/stability.hpp"
#include "sim/mobility.hpp"
#include "util/stats.hpp"

namespace gc::fault {
class FaultSchedule;
}

namespace gc::lp {
class SolveStatsSink;
}

namespace gc::policy {
struct SleepSetup;
}

namespace gc::obs {
class AlertEngine;
class EventJournal;
class HttpExporter;
struct Profile;
struct ProfileMeta;
}  // namespace gc::obs

namespace gc::sim {

struct Metrics {
  // Per-slot series (index = slot).
  std::vector<double> cost;             // f(P(t))
  std::vector<double> grid_j;           // P(t)
  std::vector<double> q_bs;             // total BS data backlog (packets)
  std::vector<double> q_users;          // total user data backlog (packets)
  std::vector<double> battery_bs_j;     // total BS energy buffer
  std::vector<double> battery_users_j;  // total user energy buffer

  // Aggregates.
  TimeAverage cost_avg;                  // psi_P3 estimate
  StabilityTracker q_total_stability;    // strong-stability probe on sum(Q)
  StabilityTracker h_total_stability;    // ... on sum(G)
  double total_demand_shortfall = 0.0;   // packets across sessions/slots
  double total_unserved_energy_j = 0.0;
  double total_curtailed_j = 0.0;
  double total_delivered_packets = 0.0;  // into destinations
  double total_admitted_packets = 0.0;
  // Sum of v_s(t) over sessions and slots — the demand the scenario
  // offered. Equals slots * sum_s v_s under constant-rate traffic; the
  // denominator for delivery percentages under time-varying traffic.
  double total_offered_packets = 0.0;
  int slots = 0;

  // Sleep-policy aggregates (src/policy), copied from the run's
  // SleepController when it exits the loop. Correct across resume: the
  // controller's cumulative counters ride in checkpoints, so a resumed
  // run's totals match an uninterrupted one's. policy_awake_bs stays -1
  // for policy-free runs — the CLI keys its summary line off it.
  int policy_awake_bs = -1;          // awake BS count at the final slot
  std::uint64_t policy_switches = 0;       // sleep/wake commands issued
  double policy_switch_energy_j = 0.0;     // switching energy charged
  std::uint64_t policy_sleep_slots = 0;    // BS-slots spent asleep

  // Little's-law estimate of the average end-to-end packet delay in slots:
  // W = L / lambda with L the time-averaged total network backlog and
  // lambda the delivered throughput. This is the queueing-delay face of
  // the paper's [O(1/V), O(V)] cost/backlog tradeoff.
  double average_delay_slots() const {
    if (slots == 0 || total_delivered_packets <= 0.0) return 0.0;
    double backlog_sum = 0.0;
    for (int t = 0; t < slots; ++t) backlog_sum += q_bs[t] + q_users[t];
    const double mean_backlog = backlog_sum / slots;
    const double throughput = total_delivered_packets / slots;
    return mean_backlog / throughput;
  }
};

struct SimOptions {
  std::uint64_t input_seed = 7;  // stream for the random processes
  // Validate every slot's decision against the P1 constraints; throws
  // CheckError listing the violations if any are found.
  bool validate = false;
  // When non-empty, write one JSONL record per slot (queue totals, energy,
  // decision summary) to this path; see obs::TraceSink for the schema.
  std::string trace_path;
  // How many worst-backlog nodes each trace record drills into.
  int trace_top_k = 3;

  // Fault injection (src/fault, docs/ROBUSTNESS.md): evaluated per slot
  // and imposed on the sampled inputs / battery capacities before the
  // controller observes them. Not owned; may be null.
  const fault::FaultSchedule* faults = nullptr;

  // Sleep-policy layer (src/policy): when non-null and active (policy !=
  // AlwaysOn), each run builds a private policy::SleepController that
  // decides the awake set every slot. A null or AlwaysOn setup leaves the
  // run bit-identical to a policy-free one. Not owned; plain data, so
  // sweeps, supervised restarts and resumes each construct their own
  // controller.
  const policy::SleepSetup* sleep = nullptr;

  // Checkpoint/resume (sim/checkpoint.hpp). When checkpoint_path is set, a
  // checkpoint generation PATH.gen<K> is written after every
  // `checkpoint_every` completed slots (0 = only at the end of the run; a
  // final checkpoint is always written), keeping the newest
  // kCheckpointGenerations. When resume_path is set, the run restores the
  // newest generation of that base that loads cleanly (corrupt tails fall
  // back to older generations, counted in robust.checkpoint_fallbacks) and
  // continues from its slot; the resulting Metrics are bit-identical to an
  // uninterrupted run's.
  std::string checkpoint_path;
  int checkpoint_every = 0;
  std::string resume_path;

  // The supervised-restart mode. Tolerate a missing checkpoint on resume:
  // when resume_path names no generation on disk, start from slot 0
  // instead of failing — the crash may land before the first checkpoint
  // was ever written. And cut the trace back to the checkpoint's slot and
  // append, as the caller does for the lp-log and the event journal, so a
  // killed+resumed run's JSONL outputs are byte-identical to an
  // uninterrupted run's. Without it a resumed trace only covers the
  // resumed portion.
  bool resume_auto = false;

  // Supervised crash restarts before this attempt (/healthz "restarts"),
  // which is also the number of kill-chaos kills
  // (fault::FaultEvent::Kind::ProcessKill) already survived: the run
  // raises SIGKILL at slot t iff the slot's kill ordinal >= this, so each
  // scheduled kill fires exactly once.
  int process_kill_skip = 0;

  // LP solve-stats sink shared with the controller (lp::JsonlSolveLog).
  // Not owned; may be null. The run only flushes it at checkpoint
  // boundaries — wiring it into the controller stays the CLI's job.
  lp::SolveStatsSink* lp_sink = nullptr;

  // Set to true (when non-null) if the run stopped early at a graceful
  // shutdown request instead of completing all slots.
  bool* interrupted = nullptr;

  // Scenario identity (src/scenario). The name and hash are attached to
  // the trace header and stamped into checkpoints; resuming a checkpoint
  // whose hash differs from the run's is refused loudly (a resume under a
  // different scenario would silently compute nonsense). Hash 0 = unknown
  // (ad-hoc ScenarioConfig, direct library callers), which matches only
  // checkpoints that were also written without a scenario.
  std::string scenario_name;
  std::uint64_t scenario_hash = 0;

  // Structural subset of the scenario hash (scenario_structural_hash).
  // Stamped into checkpoints; when allow_swapped_scenario is set (a
  // --reload-scenario run), resume only requires the *structural* hashes
  // to match — the workload fields (traffic shape, tariff) may differ.
  std::uint64_t scenario_structural_hash = 0;
  bool allow_swapped_scenario = false;

  // The Lyapunov theory auditor (src/obs/stability.hpp,
  // docs/OBSERVABILITY.md) runs every slot: per-slot bound checks, drift
  // diagnostics, and the windowed convergence estimator.
  // Abort (gc::CheckError with a precise message naming the queue/battery,
  // its value, and the broken bound) on the first audited violation.
  bool strict_bounds = false;
  // Window length for the convergence estimator; <= 0 disables windows.
  int audit_window_slots = 256;

  // Live telemetry (src/obs/snapshot.hpp): when snapshot_path is set, an
  // atomic JSON snapshot (plus a Prometheus-text twin at PATH.prom) is
  // written after every `snapshot_every` completed slots and once at the
  // end of the run (0 = final only).
  std::string snapshot_path;
  int snapshot_every = 0;

  // Live operations layer (docs/OBSERVABILITY.md "Operating live runs").
  // None of these affect Metrics: a run with all three attached is
  // metrics-bit-identical to the same run without them. Each is not
  // owned and may be null; sim/slot_output.hpp drives them.
  //
  // Structured event journal (obs/events.hpp). The caller opens the JSONL
  // sink (with the resume-slot cut) before the run.
  obs::EventJournal* events = nullptr;
  // Alert rule engine (obs/alerts.hpp); its debounce state rides
  // checkpoint v6.
  obs::AlertEngine* alerts = nullptr;
  // HTTP exporter (obs/http_exporter.hpp).
  obs::HttpExporter* exporter = nullptr;
};

// The audit contract the paper's analysis implies for `model` at drift
// weight V and admission coefficient lambda:
//  * data queues: Q_i^s <= lambda*V + K_s^max + relay allowance, where the
//    allowance covers differential-backlog in-flow (R_i * beta per slot,
//    creeping at most num_nodes deep across relay chains; 0 without
//    multihop);
//  * shifted batteries: z_i in [-shift_i, capacity_i - shift_i] with
//    shift_i = V*gamma_max + d_i^max (Section IV-B).
// Queue index layout is node * num_sessions + session.
obs::AuditConfig make_audit_config(const core::NetworkModel& model, double V,
                                   double lambda);

// A run's profile meta: the scenario's name and size (nodes, the ordered
// links the architecture allows, range-pruned pairs, sessions) and the
// run's slots, wall time, rate and dropped spans.
obs::ProfileMeta make_profile_meta(const std::string& scenario,
                                   const core::NetworkModel& model, int slots,
                                   double wall_s, std::int64_t spans_dropped);

// Writes `profile` to `path` (JSON) and to `path`.collapsed, each
// atomically.
void write_profile_files(const std::string& path,
                         const obs::Profile& profile);

// Runs `controller` for `slots` slots against freshly sampled inputs.
// `slots` may be 0 (useful for dry runs); all series stay empty.
Metrics run_simulation(const core::NetworkModel& model,
                       core::LyapunovController& controller, int slots,
                       const SimOptions& options = {});

// Same, with users walking a random-waypoint pattern between slots (the
// controller must have been built on this same `model` instance).
Metrics run_simulation_mobile(core::NetworkModel& model,
                              core::LyapunovController& controller,
                              int slots, const MobilityConfig& mobility,
                              const SimOptions& options = {});

}  // namespace gc::sim
