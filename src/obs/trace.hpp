// Per-slot JSONL trace sink: one JSON object per line, one line per slot,
// written with bounded overhead (a single buffered write per slot through
// util::JsonlWriter, no allocation besides the reused line buffer).
//
// Schema (docs/OBSERVABILITY.md has the authoritative description):
//   {"t":12,
//    "queues":{"q_bs":..,"q_users":..,"h_total":..,
//              "battery_bs_j":..,"battery_users_j":..},
//    "energy":{"grid_j":..,"cost":..,"curtailed_j":..,"unserved_j":..},
//    "decisions":{"admitted":..,"delivered":..,"shortfall":..,
//                 "links":..,"routed":..},
//    "robust":{"fallbacks":..,"degraded":..,"faults":..},
//    "top_backlog":[{"node":3,"packets":41.0}, ...]}   // k worst nodes
//
// The sink is deliberately independent of core/ types so it can live below
// every other library; the simulator flattens its state into TraceRecord.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/fsio.hpp"

namespace gc::obs {

struct TraceRecord {
  int slot = 0;
  // Queue totals after the slot's queue-law update.
  double q_bs = 0.0, q_users = 0.0, h_total = 0.0;
  double battery_bs_j = 0.0, battery_users_j = 0.0;
  // Energy outcome.
  double grid_j = 0.0, cost = 0.0, curtailed_j = 0.0, unserved_j = 0.0;
  // Decision summary.
  double admitted_packets = 0.0, delivered_packets = 0.0;
  double shortfall_packets = 0.0, routed_packets = 0.0;
  int scheduled_links = 0;
  // Robustness (docs/ROBUSTNESS.md): solver fallback-ladder drops this
  // slot, whether any fired, and how many fault-injection events the slot
  // carried. Serialized as a "robust" group.
  int fallbacks = 0;
  bool degraded = false;
  int fault_events = 0;
  // Stability auditor (src/obs/stability.hpp): the slot's Lyapunov value,
  // one-slot drift, drift-plus-penalty, worst bound margins, and violation
  // flags. Serialized as a "stability" group.
  double lyapunov = 0.0;
  double drift = 0.0;
  double dpp = 0.0;
  double worst_q_margin = 0.0;
  double worst_z_margin_j = 0.0;
  int stability_violations = 0;  // q + z + drift violations this slot
  bool window_unstable = false;
  // Sleep-policy controller (src/policy): the slot's awake/asleep/waking
  // split and the run-cumulative switch counters. Serialized as a "policy"
  // group only when has_policy is set (policy-free runs keep the old
  // schema byte for byte).
  bool has_policy = false;
  int awake_bs = 0, asleep_bs = 0, waking_bs = 0;
  double policy_switches = 0.0;     // cumulative sleep/wake commands
  double switch_energy_j = 0.0;     // cumulative switching energy charged
  // The k nodes carrying the largest total data backlog, worst first.
  std::vector<std::pair<int, double>> top_backlog;  // (node, packets)
};

class TraceSink {
 public:
  // Opens `path` fresh (resume_slot < 0) or cut back to resume_slot and
  // continued (util::JsonlWriter, keyed on "t"). Throws gc::CheckError if
  // it cannot.
  explicit TraceSink(const std::string& path, int resume_slot = -1);

  // Writes the one-line header record identifying the run's scenario:
  //   {"scenario":{"name":"...","hash":"0x..."}}
  // Call before the first slot record; tools (trace_summarize) detect the
  // header by its "scenario" key. An empty name and hash 0 mean an ad-hoc
  // run; the header is still written so the file shape is uniform. Header
  // lines do not count toward records().
  void write_header(const std::string& scenario_name,
                    std::uint64_t scenario_hash);

  // Serializes each record as one complete line. Safe to call from
  // concurrent threads sharing one sink: the format-and-write cycle is
  // under a mutex, so lines are never torn or interleaved.
  void write(const TraceRecord& r);

  int records() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }
  // What the resume cut found; appended() = a kept prefix (header
  // included) was continued, so no new header is due.
  const util::JsonlTruncation& resume_cut() const { return out_.cut(); }
  bool appended() const { return out_.appended(); }

  // Durability point: flushes and fsyncs so every complete line survives
  // a SIGKILL. Called at checkpoint boundaries.
  void flush();

 private:
  mutable std::mutex mutex_;  // guards out_, line_, records_
  util::JsonlWriter out_;
  std::string line_;  // reused per-record buffer
  int records_ = 0;
};

}  // namespace gc::obs
