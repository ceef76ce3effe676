// Deterministic hierarchical profiler over the Span stream (--profile FILE).
//
// build_profile() folds a drained SpanRecorder ring into an attribution
// tree: spans nest by containment on each thread lane (the steady clock
// guarantees a child's interval lies inside its parent's), and same-named
// siblings aggregate into one node. The result answers "where do the
// seconds of a slot go" — sim.slot → controller.step → s1/s3/s4 →
// lp.solve — with per-node call counts, total and self wall time, and
// problem-size statistics from SpanEvent::dim (LP columns, scheduled
// links, ...), so slots/s cliffs correlate with dimensions.
//
// Everything here is deterministic given the span stream: children are kept
// sorted by name and the exporters format with fixed precision — two runs that recorded identical spans
// produce byte-identical artifacts.
//
// Exports:
//  * to_json()      — one "gc.profile.v1" object (tools/perf_report input);
//  * to_collapsed() — collapsed-stack text ("a;b;c <self µs>" per line),
//                     the format flamegraph.pl / speedscope / inferno eat.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/timer.hpp"

namespace gc::obs {

// One aggregation node: every span named `name` observed at this position
// in the tree. `self_s` (total minus children, set by build/finalize) is
// the flamegraph value. Dim statistics cover the spans that carried a
// problem-size annotation (dim >= 0).
struct ProfileNode {
  std::string name;
  std::int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::int64_t dim_count = 0;
  double dim_sum = 0.0;
  std::int64_t dim_min = 0;
  std::int64_t dim_max = 0;
  std::map<std::string, ProfileNode> children;  // sorted — determinism
};

// Run-level context stamped by the capturing tool so an artifact is
// self-describing (perf_report compares slots_per_s and normalizes the
// tree per slot).
struct ProfileMeta {
  std::string scenario;
  int nodes = 0;
  int links = 0;
  int sessions = 0;
  int slots = 0;
  // Ordered (tx, rx) pairs range pruning removed from the candidate scans
  // (net/link_prune.hpp); 0 when --link-prune is off. Stamped so a
  // perf_report speedup stays attributable to the smaller scan.
  std::int64_t links_pruned = 0;
  double wall_s = 0.0;
  double slots_per_s = 0.0;
  std::int64_t spans_dropped = 0;  // ring overflow during capture
  // Sleep-policy layer (src/policy): the run's policy name and cumulative
  // switch counters. Empty name = policy-free run — the "policy" object is
  // then omitted from the JSON, keeping pre-policy artifacts byte-stable.
  std::string policy;
  std::int64_t policy_switches = 0;
  double policy_switch_energy_j = 0.0;
  std::int64_t policy_sleep_slots = 0;
};

struct Profile {
  ProfileMeta meta;
  ProfileNode root;  // name "all"; total_s = sum of top-level spans
  // Spans whose parent was evicted from the ring (or otherwise broke
  // containment): they re-root at "all", and this counts them so a
  // truncated capture is visible in the artifact.
  std::int64_t orphans = 0;

  std::string to_json() const;
  std::string to_collapsed() const;
};

// Builds the attribution tree from drained spans (SpanRecorder::drain
// order — sorted by start time — is fine; any order works). meta is left
// default: the capturing tool stamps it.
Profile build_profile(const std::vector<SpanEvent>& spans);

}  // namespace gc::obs
