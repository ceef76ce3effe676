// Structured operational event journal (docs/OBSERVABILITY.md "Operating
// live runs"): an ordered, queryable timeline of the things that happen TO
// a run — restarts, LP fallback-ladder drops, checkpoint writes, sleep
// policy switches, Lemma-1 bound violations, alert transitions — as opposed
// to the per-slot physics the trace sink records.
//
// Two event classes, deliberately distinct:
//
//  * Slot events carry a monotonic sequence number and the slot they
//    happened in:
//      {"seq":12,"slot":34,"kind":"lp_fallback","value":2,
//       "detail":"...","wall_s":1754…}
//    They are deterministic replay state: a killed+resumed run re-emits
//    exactly the lines an uninterrupted run would have written (modulo the
//    trailing wall_s field), because the journal is cut back to the
//    checkpointed slot on resume exactly like the trace / LP-solve sinks
//    (all three write through util::JsonlWriter) and the sequence counter
//    is recovered from the kept lines.
//
//  * Lifecycle events carry NO sequence number and an "at" field instead
//    of "slot":
//      {"kind":"restart","at":34,"value":2,"wall_s":1754…}
//    They describe the process, not the run — supervisor restarts and
//    hot-reloads (appended by the PARENT between attempts) and
//    checkpoint-generation fallbacks noticed at resume. Keeping them out of
//    the sequence space is what lets the slot-event stream stay
//    byte-identical across kills: a lifecycle line never shifts a seq.
//
// The journal also keeps a fixed-capacity in-memory ring of rendered lines
// with its own per-process cursor, which is what the HTTP exporter's
// /events?since=K endpoint serves (the ring cursor restarts at 0 with the
// process; the persistent "seq" field inside slot-event lines does not).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/fsio.hpp"

namespace gc::obs {

enum class EventKind {
  kRestart,             // lifecycle: supervisor restarted a crashed child
  kLpFallback,          // slot: the solver fallback ladder dropped a rung
  kCheckpointWrite,     // slot: a checkpoint was committed (value=next_slot)
  kCheckpointFallback,  // lifecycle: resume skipped corrupt generation(s)
  kPolicySwitch,        // slot: sleep controller issued sleep/wake commands
  kBoundViolation,      // slot: auditor saw a Lemma-1 bound violation
  kHotReload,           // lifecycle: SIGHUP reload restart
  kAlertFire,           // slot: an alert rule started firing
  kAlertClear,          // slot: a firing alert rule recovered
};

// Stable wire name ("restart", "lp_fallback", ...).
const char* event_kind_name(EventKind kind);

// Outcome of attaching a JSONL sink over an existing (possibly crashed)
// journal file: the resume cut plus the recovered slot-event counter.
struct EventSinkResume : util::JsonlTruncation {
  std::uint64_t next_seq = 0;
};

class EventJournal {
 public:
  explicit EventJournal(std::size_t ring_capacity = 4096);

  // Attaches the fsync'd JSONL sink at `path`. cut_slot >= 0 resumes an
  // existing journal: the file is truncated so every slot event with
  // slot >= cut_slot is dropped (lifecycle lines carry no "slot" key and
  // are kept — a resume from slot 0 keeps its parent-appended restart
  // line), the sink reopens in append mode when anything was kept, and
  // next_seq is recovered from the last surviving "seq" field. cut_slot
  // < 0 truncates to empty (fresh run). Throws gc::CheckError when the
  // file cannot be opened.
  EventSinkResume open_sink(const std::string& path, int cut_slot);

  bool has_sink() const;

  // Emits one slot event: assigns the next sequence number, appends to the
  // ring, and writes the JSONL line when a sink is attached. `value` is
  // printed as an integer when it is one. Thread-safe.
  void emit_slot(EventKind kind, int slot, double value,
                 const std::string& detail = std::string());

  // Emits one lifecycle event (no sequence number; "at" instead of
  // "slot"). Thread-safe.
  void emit_lifecycle(EventKind kind, int at_slot, double value,
                      const std::string& detail = std::string());

  // Durability point: flushes and fsyncs the sink so every complete line
  // survives a SIGKILL. Called at checkpoint boundaries alongside the
  // trace / LP sinks.
  void flush();

  // Next slot-event sequence number (== count of slot events emitted plus
  // any recovered at open_sink).
  std::uint64_t next_seq() const;

  // Ring query for /events?since=K: rendered lines whose ring cursor is
  // >= `since`, oldest first. `*next` receives the cursor one past the
  // newest event (pass it back as the next `since`). The ring cursor is
  // per-process and independent of the persistent "seq" field.
  std::vector<std::string> ring_since(std::uint64_t since,
                                      std::uint64_t* next) const;

 private:
  void emit_line(const std::string& line);

  mutable std::mutex mutex_;
  std::unique_ptr<util::JsonlWriter> out_;  // null until open_sink
  std::uint64_t next_seq_ = 0;
  std::vector<std::string> ring_;  // rolling window of rendered lines
  std::size_t ring_capacity_;
  std::uint64_t ring_end_ = 0;  // cursor one past the newest ring entry
  std::string line_;            // reused render buffer
};

// Parent-side append for supervisor lifecycle events (restart, hot_reload):
// cuts `path` back to `cut_slot` first — exactly the cut the resumed child
// will make, so the dead tail past the last durable checkpoint never
// buries the restart line — then appends the lifecycle line and fsyncs.
// cut_slot < 0 keeps every slot event and cuts only a torn tail (the
// checkpoint is unreadable, so no resume will replay anything). Missing
// file is fine (the line still gets written).
void append_lifecycle_event(const std::string& path, int cut_slot,
                            EventKind kind, int at_slot, double value,
                            const std::string& detail = std::string());

}  // namespace gc::obs
