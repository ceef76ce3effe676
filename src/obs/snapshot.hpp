// Live run telemetry: periodic atomic snapshots of a running simulation
// for external monitoring.
//
// Every write lands TWICE, both atomically (tmp + std::rename, the
// checkpoint idiom — a reader never sees a torn file):
//  * `path`       — one JSON object: progress (slot, slots/s, ETA),
//                   queue/battery/cost aggregates, the stability auditor's
//                   worst bound margins, and a full registry dump;
//  * `path.prom`  — the same numbers in Prometheus text exposition format
//                   (gc_* metric families) for external scrapers.
//
// The writer is deliberately dumb: the simulator decides when a snapshot is
// due (SnapshotWriter::due) and flattens everything into SnapshotData, so
// this file — like the rest of src/obs — depends on nothing above util.
#pragma once

#include <cstdint>
#include <string>

namespace gc::obs {

class Registry;

// Everything one snapshot reports. Optional sections are keyed by their
// presence flags; the writer emits only what is set.
struct SnapshotData {
  // Progress.
  int slot = 0;         // completed slots
  int total_slots = 0;  // run horizon (0 = unknown)
  double wall_s = 0.0;  // since the run started
  double slots_per_s = 0.0;
  double eta_s = 0.0;  // remaining wall time at the current rate (0 = done
                       // or unknown)
  std::string scenario_name;
  std::uint64_t scenario_hash = 0;

  // Current aggregates (after the last completed slot).
  bool have_aggregates = false;
  double q_total_packets = 0.0;   // all data queues
  double h_total = 0.0;           // virtual-queue sum
  double battery_total_j = 0.0;   // all batteries
  double cost_last = 0.0;         // f(P) of the last slot
  double cost_time_avg = 0.0;     // running time-average cost
  double grid_total_j = 0.0;      // cumulative grid energy

  // Stability auditor digest (src/obs/stability.hpp).
  bool have_stability = false;
  double worst_q_margin = 0.0;   // min over the run; negative = violated
  double worst_z_margin_j = 0.0;
  double q_violations = 0.0;
  double z_violations = 0.0;
  double drift_violations = 0.0;
  double unstable_windows = 0.0;

  // Sleep-policy aggregates (src/policy). awake_bs < 0 is the policy-free
  // sentinel: no "policy" JSON section and no gc_policy_* Prometheus lines
  // are emitted, so the -1 never leaks to scrapers. The run fills this
  // from its live SleepController.
  int policy_awake_bs = -1;
  double policy_switches = 0.0;
  double policy_switch_energy_j = 0.0;
  double policy_sleep_slots = 0.0;

  // Full instrument dump; null = omit.
  const Registry* registry = nullptr;
};

// The two renderings, exposed so the HTTP exporter (obs/http_exporter.hpp)
// can serve byte-identical bodies on /snapshot.json and /metrics without a
// disk round trip.
//
// render_snapshot_json: one JSON object terminated by a newline.
// render_snapshot_prom: Prometheus text exposition, every family preceded
// by its # HELP and # TYPE lines (counters as `counter`, gauges as `gauge`,
// registry histograms as real `histogram` families with cumulative
// _bucket{le="..."} lines, +Inf, _sum and _count).
std::string render_snapshot_json(const SnapshotData& data);
std::string render_snapshot_prom(const SnapshotData& data);

// The HTTP exporter's /healthz body (obs/http_exporter.hpp).
struct HealthzData {
  bool healthy = true;  // no critical alert firing; "ok", else "alerting"
  int slot = 0;         // completed slots
  int total_slots = 0;
  double slots_per_s = 0.0;       // SlotRate's moving average
  int checkpoint_age_slots = -1;  // -1 = the run writes no checkpoints
  int restarts = 0;               // supervised crash restarts so far
  int alerts_firing = 0;
  int critical_firing = 0;
};

// One JSON object terminated by a newline, fields in declaration order,
// slots_per_s printed with %.6g.
std::string render_healthz_json(const HealthzData& data);

// Slots/s as an exponential moving average (weight 0.2 on the newest
// step) over the slot boundaries a run publishes. It advances only when
// the completed-slot count grew, so publishing the same boundary twice
// leaves the rate unchanged.
class SlotRate {
 public:
  // Feeds one publish: `completed_slots` at `now_s` on the run's clock.
  // Returns the current average.
  double observe(int completed_slots, double now_s);

 private:
  int last_slots_ = -1;
  double last_s_ = 0.0;
  double ema_ = 0.0;
};

class SnapshotWriter {
 public:
  // `every_slots`: a snapshot is due after every N completed slots; 0 means
  // only the caller-forced final write. Throws gc::CheckError on an
  // unusable path at the first write, not at construction.
  SnapshotWriter(std::string path, int every_slots);

  const std::string& path() const { return path_; }
  std::string prom_path() const { return path_ + ".prom"; }
  int every_slots() const { return every_; }

  // True when `completed_slots` lands on the cadence.
  bool due(int completed_slots) const {
    return every_ > 0 && completed_slots > 0 && completed_slots % every_ == 0;
  }

  // Atomically replaces both files with the snapshot. Not thread-safe;
  // the run writes its snapshots from the slot loop's thread.
  void write(const SnapshotData& data);

 private:
  std::string path_;
  int every_ = 0;
};

}  // namespace gc::obs
