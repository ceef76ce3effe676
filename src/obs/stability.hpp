// Lyapunov theory auditor: turns the paper's drift-plus-penalty guarantees
// into per-slot runtime monitors.
//
// The controller's analysis (Section IV, Theorems 3-4) promises
//  * every data queue deterministically bounded (O(V)),
//  * every shifted battery z_i = x_i - (V*gamma_max + d_i^max) confined to
//    [-shift, capacity - shift],
//  * per-slot sample-path drift bound
//      L(t+1) - L(t) + V (f(P) - lambda sum_s k_s)
//          <= B + Psi1 + Psi2 + Psi3 + Psi4,
//  * and the [O(1/V), O(V)] tradeoff: running time-average cost converges
//    while time-average backlog stays bounded.
//
// The auditor checks all four while a run executes. Violations increment
// `stability.*` counters in the thread-current registry and are surfaced in
// the per-slot SlotVerdict so the simulator can mark the trace record and
// (opt-in, --strict-bounds) abort with a precise message.
//
// Layering: like obs::TraceRecord, the auditor sees only flattened vectors
// — the simulator computes L(Theta), the bound vectors, and the Psi-hat
// right-hand side (validate mode only) from core/ types and hands them
// over, so src/obs keeps depending on nothing above util.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace gc::obs {

// The per-run audit contract: which bounds to enforce and how the windowed
// convergence estimator is tuned. The simulator builds this from the model
// (sim::make_audit_config); tests may hand-craft it.
struct AuditConfig {
  double V = 0.0;
  double lambda = 0.0;
  // Deterministic per-queue bounds (packets), in whatever flattened layout
  // the caller uses for SlotAudit::q (the simulator uses node * S + s).
  // Empty = skip the queue-bound check.
  std::vector<double> q_bound;
  // Shifted-battery admissible range per node: z_i in [z_min[i], z_max[i]]
  // (= [-shift_i, capacity_i - shift_i]). Empty = skip.
  std::vector<double> z_min;
  std::vector<double> z_max;
  // Windowed convergence estimator: every `window_slots` slots the window's
  // mean total backlog is compared against the previous window's; relative
  // growth beyond growth_tolerance * max(prev mean, 1 packet) flags the
  // window unstable (the O(V) side of the tradeoff is being violated). The
  // first window is warmup — the run ramps from its initial state — so
  // comparisons start at the third closed window. window_slots <= 0
  // disables the estimator.
  int window_slots = 256;
  double growth_tolerance = 0.05;
  // Relative slack for the drift-bound comparison (floating-point headroom
  // on top of an exact inequality).
  double drift_tolerance = 1e-6;
};

// One slot's flattened observations. Vectors are borrowed, not copied; they
// must match the AuditConfig layouts (GC_CHECK'd on first use).
struct SlotAudit {
  int slot = 0;
  const std::vector<double>* q = nullptr;  // per-queue backlogs (packets)
  const std::vector<double>* z = nullptr;  // per-node shifted batteries (J)
  double lyapunov = 0.0;        // L(Theta(t)) after the slot's queue update
  double cost = 0.0;            // f(P(t))
  double admitted_packets = 0.0;  // sum_s k_s(t)
  double total_backlog = 0.0;     // sum of data queues (packets)
  // Sample-path right-hand side B + Psi1 + ... + Psi4 evaluated at the
  // pre-decision state. Only available in validate runs (where the
  // simulator already holds the pre-state copy); NaN = skip the check.
  double drift_bound_rhs = std::numeric_limits<double>::quiet_NaN();
  // L(Theta) of the pre-decision state the RHS was evaluated at. When set,
  // the bound check uses lyapunov - pre_lyapunov as the drift instead of
  // the slot-over-slot difference: fault injection (battery fade) mutates
  // the state between slots, so the two can legitimately differ. NaN =
  // fall back to the slot-over-slot drift.
  double pre_lyapunov = std::numeric_limits<double>::quiet_NaN();
};

// What the auditor concluded about one slot.
struct SlotVerdict {
  int q_violations = 0;      // queues above their deterministic bound
  int z_violations = 0;      // shifted batteries outside their range
  int drift_violations = 0;  // 0 or 1: drift-plus-penalty above the RHS
  bool window_closed = false;
  bool window_unstable = false;  // this slot closed a growing window
  // Worst (smallest) margins this slot; negative = violated. Margin for a
  // queue is bound - Q; for a battery min(z - z_min, z_max - z). Index -1
  // when the corresponding check is disabled.
  double worst_q_margin = std::numeric_limits<double>::infinity();
  int worst_q_index = -1;
  double worst_z_margin = std::numeric_limits<double>::infinity();
  int worst_z_index = -1;
  // Drift diagnostics: L(t) - L(t-1) (0 on the first audited slot) and the
  // drift-plus-penalty value drift + V (f(P) - lambda sum k).
  double drift = 0.0;
  double dpp = 0.0;

  bool any_violation() const {
    return q_violations > 0 || z_violations > 0 || drift_violations > 0 ||
           window_unstable;
  }
};

// The auditor's serializable scalar state: everything observe() accumulates
// across slots, so a checkpointed run can resume mid-stream and report the
// same run-level totals and window verdicts as an uninterrupted one
// (sim/checkpoint.hpp carries this in format v3). The AuditConfig itself is
// rebuilt from the scenario, not serialized.
struct AuditorState {
  std::int64_t slots = 0;
  double cost_sum = 0.0;
  double prev_lyapunov = 0.0;
  bool have_prev_lyapunov = false;
  std::int64_t total_q_violations = 0;
  std::int64_t total_z_violations = 0;
  std::int64_t total_drift_violations = 0;
  std::int64_t unstable_windows = 0;
  double run_worst_q_margin = std::numeric_limits<double>::infinity();
  double run_worst_z_margin = std::numeric_limits<double>::infinity();
  int window_fill = 0;
  std::int64_t closed_windows = 0;
  double window_backlog_sum = 0.0;
  double window_cost_sum = 0.0;
  double prev_window_backlog_mean = 0.0;
  double prev_window_cost_mean = 0.0;
  bool have_prev_window = false;
  double window_cost_delta = 0.0;
};

// Per-run auditor. Not thread-safe; one instance per simulation.
class StabilityAuditor {
 public:
  explicit StabilityAuditor(AuditConfig config);

  // Checkpoint support: the full accumulated state, and its restoration.
  // restore() assumes the config matches the one the snapshot was taken
  // under (the checkpoint's scenario-hash binding guarantees it).
  AuditorState state_snapshot() const;
  void restore(const AuditorState& s);

  const AuditConfig& config() const { return config_; }

  // Audits one completed slot; updates the stability.* instruments and the
  // running/windowed estimators.
  SlotVerdict observe(const SlotAudit& slot);

  // Running time-average cost (the O(1/V) side of the tradeoff) and how
  // much the last two closed windows' mean costs differed (a convergence
  // probe; meaningless before the second window closes).
  double cost_time_average() const {
    return slots_ > 0 ? cost_sum_ / slots_ : 0.0;
  }
  double window_cost_delta() const { return window_cost_delta_; }

  // Totals across the run so far.
  std::int64_t audited_slots() const { return slots_; }
  std::int64_t total_q_violations() const { return total_q_violations_; }
  std::int64_t total_z_violations() const { return total_z_violations_; }
  std::int64_t total_drift_violations() const {
    return total_drift_violations_;
  }
  std::int64_t unstable_windows() const { return unstable_windows_; }
  // Worst margins seen across the whole run (infinity until the first
  // audited slot; negative once a bound was broken).
  double run_worst_q_margin() const { return run_worst_q_margin_; }
  double run_worst_z_margin() const { return run_worst_z_margin_; }

  // Human-readable one-line description of the slot's worst violation, for
  // strict-bounds abort messages; empty when the verdict is clean.
  // `queue_name(i)` / `node_name(i)` map flattened indices back to the
  // caller's naming (the simulator prints "node 3 session 1").
  template <typename QueueNameFn, typename NodeNameFn>
  std::string describe_violation(const SlotAudit& slot,
                                 const SlotVerdict& verdict,
                                 QueueNameFn&& queue_name,
                                 NodeNameFn&& node_name) const;

 private:
  void check_layout(const SlotAudit& slot);

  AuditConfig config_;
  bool layout_checked_ = false;

  std::int64_t slots_ = 0;
  double cost_sum_ = 0.0;
  double prev_lyapunov_ = 0.0;
  bool have_prev_lyapunov_ = false;

  std::int64_t total_q_violations_ = 0;
  std::int64_t total_z_violations_ = 0;
  std::int64_t total_drift_violations_ = 0;
  std::int64_t unstable_windows_ = 0;
  double run_worst_q_margin_ = std::numeric_limits<double>::infinity();
  double run_worst_z_margin_ = std::numeric_limits<double>::infinity();

  // Windowed estimator state.
  int window_fill_ = 0;
  std::int64_t closed_windows_ = 0;
  double window_backlog_sum_ = 0.0;
  double window_cost_sum_ = 0.0;
  double prev_window_backlog_mean_ = 0.0;
  double prev_window_cost_mean_ = 0.0;
  bool have_prev_window_ = false;
  double window_cost_delta_ = 0.0;
};

template <typename QueueNameFn, typename NodeNameFn>
std::string StabilityAuditor::describe_violation(const SlotAudit& slot,
                                                 const SlotVerdict& verdict,
                                                 QueueNameFn&& queue_name,
                                                 NodeNameFn&& node_name) const {
  auto num = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  std::string msg = "slot " + std::to_string(slot.slot) + ": ";
  if (verdict.q_violations > 0) {
    const int i = verdict.worst_q_index;
    return msg + "data queue " + queue_name(i) + " holds " +
           num((*slot.q)[static_cast<std::size_t>(i)]) +
           " packets, above its deterministic bound " +
           num(config_.q_bound[static_cast<std::size_t>(i)]) +
           " (lambda*V + K_s^max + relay allowance; docs/OBSERVABILITY.md)";
  }
  if (verdict.z_violations > 0) {
    const int i = verdict.worst_z_index;
    return msg + "shifted battery z at " + node_name(i) + " is " +
           num((*slot.z)[static_cast<std::size_t>(i)]) +
           " J, outside [" + num(config_.z_min[static_cast<std::size_t>(i)]) +
           ", " + num(config_.z_max[static_cast<std::size_t>(i)]) +
           "] (shift = V*gamma_max + d_i^max)";
  }
  if (verdict.drift_violations > 0) {
    return msg + "drift-plus-penalty " + num(verdict.dpp) +
           " exceeds the Lemma-1 sample-path bound " +
           num(slot.drift_bound_rhs) + " (B + Psi1..Psi4 at the pre-state)";
  }
  if (verdict.window_unstable) {
    return msg +
           "windowed mean backlog is still growing (O(V) boundedness "
           "violated; the admission threshold lambda*V cannot hold this "
           "load)";
  }
  return "";
}

}  // namespace gc::obs
