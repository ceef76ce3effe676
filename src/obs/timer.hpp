// The one timing primitive: obs::Span, an RAII wall-clock interval over
// std::chrono::steady_clock.
//
// A Span reads the clock once when it opens and once when it closes, and
// that one duration feeds everything the scope is timed into:
//
//   {
//     obs::Span t("controller.s2_admission", m.s2, slot);
//     ... hot work ...
//   }   // <- one clock read: histogram and span ring
//
//  * the process-wide SpanRecorder ring (when recording is enabled),
//    exportable as Chrome trace-event JSON (chrome://tracing, Perfetto) and
//    folded into profiles (obs/profile.hpp). Spans nest naturally — the
//    viewer reconstructs the stack from containment on one thread lane;
//  * optionally a registry Histogram (the ctrl.*_seconds timers);
//  * stop(), which closes the span early and returns that duration
//    (SolveStats::wall_s), and elapsed_s() for free-running clocks (a
//    null name keeps the span out of the ring: the run-rate clocks).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace gc::obs {

// One recorded interval. `name` must be a string literal (or otherwise
// outlive the recorder) — recording stores the pointer, never copies.
struct SpanEvent {
  const char* name = "";
  double start_s = 0.0;  // seconds since the recorder's epoch
  double dur_s = 0.0;
  std::uint32_t tid = 0;  // small dense per-thread index, Chrome lane
  std::int64_t id = -1;   // caller payload (sweep job index, slot, ...)
  // Problem-size annotation (LP columns, scheduled links, nodes, ...);
  // -1 = none. The profiler (obs/profile.hpp) aggregates it per tree node
  // so slots/s cliffs can be correlated with problem dimensions.
  std::int64_t dim = -1;
};

// Process-wide bounded span store: a mutex-protected ring buffer that keeps
// the most recent `capacity` spans (older ones are overwritten; dropped()
// counts them). Recording is gated on an atomic flag so instrumented hot
// paths pay one relaxed load when tracing is off.
class SpanRecorder {
 public:
  static SpanRecorder& instance();

  // Clears the buffer, (re)sizes it, and starts recording. The epoch for
  // start_s is the first enable() call of the process.
  void enable(std::size_t capacity = 1 << 18);
  void disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(const char* name, double start_s, double dur_s,
              std::int64_t id, std::int64_t dim = -1);

  // Seconds from the recorder epoch to `t` on the steady clock; 0 before
  // the first enable().
  double since_epoch_s(std::chrono::steady_clock::time_point t) const;

  // Copies the buffered spans out in chronological order and clears the
  // buffer (dropped() resets too).
  std::vector<SpanEvent> drain();
  std::int64_t dropped() const;

  // Writes the buffered spans (without draining) as Chrome trace-event
  // JSON — {"traceEvents":[{"ph":"X",...}]} — atomically (tmp + rename).
  // Timestamps are microseconds since the recorder epoch.
  void export_chrome_trace(const std::string& path) const;

  // The calling thread's dense lane index (assigned on first use).
  static std::uint32_t thread_lane();

  // Total spans the ring has dropped since the process started (unlike
  // dropped(), never reset by drain()). Mirrored into the `obs.spans_dropped`
  // registry counter of whichever thread recorded the overflowing span, so
  // truncated profiles are detectable from snapshots and reports.
  std::int64_t dropped_total() const;

 private:
  SpanRecorder() = default;

  std::atomic<bool> enabled_{false};
  // The epoch is written once (first enable) and read lock-free afterwards:
  // the release store on have_epoch_ publishes epoch_.
  std::atomic<bool> have_epoch_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards the ring below
  std::vector<SpanEvent> ring_;
  std::size_t next_ = 0;       // ring write cursor
  std::size_t size_ = 0;       // live entries (<= ring_.size())
  std::int64_t dropped_ = 0;
  std::int64_t dropped_total_ = 0;  // never reset (see dropped_total())
};

// Writes `spans` as Chrome trace-event JSON atomically (tmp + rename) —
// the same format SpanRecorder::export_chrome_trace emits, usable on any
// span list (a drained ring, or one sweep job's partition from
// obs::partition_spans_by_job).
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanEvent>& spans);

// RAII span over [construction, stop()/destruction). `name` must outlive
// the recorder (use string literals); nullptr never enters the ring. `id`
// disambiguates instances (slot index, sweep job index); `dim` annotates
// the problem size (LP columns, scheduled links, nodes) — set it at
// construction when known, or later via set_dim for sizes that only
// materialize inside the scope (a schedule's link count, say).
class Span {
 public:
  using clock = std::chrono::steady_clock;

  explicit Span(const char* name, std::int64_t id = -1, std::int64_t dim = -1)
      : Span(name, nullptr, id, dim) {}

  // Also observes the duration into `hist`.
  Span(const char* name, Histogram& hist, std::int64_t id = -1,
       std::int64_t dim = -1)
      : Span(name, &hist, id, dim) {}

  // Closes the span unless nothing would observe the duration.
  ~Span() {
    if (open_ && (hist_ != nullptr || live_)) stop();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Updates the recorded problem-size annotation (recorded at close).
  void set_dim(std::int64_t dim) { dim_ = dim; }

  // Seconds since the span opened; does not close it.
  double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  // Closes the span now and returns its duration — the exact value the
  // histogram and the ring receive. Later calls return the same value and
  // record nothing.
  double stop() {
    if (!open_) return dur_s_;
    open_ = false;
    dur_s_ = elapsed_s();
    if (hist_ != nullptr) hist_->observe(dur_s_);
    if (live_) {
      SpanRecorder& r = SpanRecorder::instance();
      r.record(name_, r.since_epoch_s(start_), dur_s_, id_, dim_);
    }
    return dur_s_;
  }

 private:
  Span(const char* name, Histogram* hist, std::int64_t id, std::int64_t dim)
      : name_(name),
        hist_(hist),
        id_(id),
        dim_(dim),
        live_(name != nullptr && SpanRecorder::instance().enabled()),
        start_(clock::now()) {}

  const char* name_;
  Histogram* hist_;
  std::int64_t id_;
  std::int64_t dim_;
  bool live_;
  bool open_ = true;
  double dur_s_ = 0.0;
  clock::time_point start_;
};

}  // namespace gc::obs
