// Process-wide metrics registry: named counters, gauges, and streaming
// histograms that subsystems register into once (the returned reference is
// stable for the life of the process) and bump on their hot paths.
//
// Design constraints, in order:
//  * near-zero hot-path cost: an instrument update is a few arithmetic ops
//    on a pre-resolved reference — the name lookup happens only at
//    registration;
//  * no dependencies above util, so lp/net/core/sim can all link it.
//
// Instruments are cumulative; `Registry::reset()` zeroes them (keeping
// registrations) for tools that want per-run numbers.
//
// Threading model (docs/PERFORMANCE.md): instrument updates are NOT
// synchronized. A run executes every slot on one thread, so `registry()` is
// the process-global registry. It resolves through a thread-current
// override that a ThreadRegistryScope installs; only perfbench's worker
// pool installs one, until ROADMAP item 1 removes that pool.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace gc::obs {

// Inert: always true, as the layer is always compiled in.
// perfbench only; ROADMAP item 1 deletes it.
inline constexpr bool kCompiledIn = true;

// Monotonic accumulator (doubles, so packet/joule totals fit too).
class Counter {
 public:
  void add(double v = 1.0) {
    sum_ += v;
    ++n_;
  }
  double total() const { return sum_; }
  std::int64_t events() const { return n_; }
  void reset() { sum_ = 0.0, n_ = 0; }

 private:
  double sum_ = 0.0;
  std::int64_t n_ = 0;
};

// Last-value-wins instrument.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// Streaming histogram over positive values (durations in seconds, sizes,
// ...) with exact count/sum/min/max and quantiles from geometric buckets:
// bucket i covers [kMin * 2^(i/6), kMin * 2^((i+1)/6)), i.e. ~12% relative
// resolution from 1 ns up to ~2 hours. Values outside the range clamp to
// the end buckets (their min/max stay exact).
class Histogram {
 public:
  static constexpr int kNumBuckets = 256;
  static constexpr double kMin = 1e-9;
  static constexpr double kBucketsPerOctave = 6.0;

  void observe(double v);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  // q in [0, 1]; returns the geometric midpoint of the bucket holding the
  // rank-q sample, clamped to [min, max]. 0 when empty.
  double quantile(double q) const;

  // Cumulative bucket view for Prometheus histogram exposition
  // (obs/snapshot.cpp): (upper_bound, cumulative_count) pairs for every
  // bucket that closes a non-empty prefix — i.e. only buckets whose own
  // population is nonzero appear, each carrying the count of samples <= its
  // upper bound. Empty when no samples were observed. The final entry's
  // cumulative count equals count().
  std::vector<std::pair<double, std::int64_t>> cumulative_buckets() const;

  void reset();

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::int64_t> buckets_;  // lazily sized to kNumBuckets
};

// Name -> instrument map. References returned by the accessors stay valid
// for the registry's lifetime (instruments are heap-allocated once).
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Sorted-by-name views for reporting.
  std::vector<std::pair<std::string, const Counter*>> counters() const;
  std::vector<std::pair<std::string, const Gauge*>> gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;

  // Zeroes every instrument, keeping registrations (and references) alive.
  void reset();

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// The process-global registry.
Registry& global_registry();

// The registry instrumentation sites resolve against: the registry
// installed on this thread by a live ThreadRegistryScope, or
// global_registry() when none is. Cached instrument references (the
// `static thread_local FooMetrics` idiom used across src/) are resolved per
// thread, so a worker that installs its scope before first touching an
// instrument keeps every subsequent update private to its own registry.
Registry& registry();

// RAII: makes `r` this thread's current registry for the scope's lifetime
// (restoring the previous current registry afterwards). Install it at the
// top of a worker thread, BEFORE any instrumented code runs on that thread
// — cached references resolved earlier on the same thread keep pointing at
// whatever registry was current when they were resolved.
class ThreadRegistryScope {
 public:
  explicit ThreadRegistryScope(Registry* r);
  ~ThreadRegistryScope();
  ThreadRegistryScope(const ThreadRegistryScope&) = delete;
  ThreadRegistryScope& operator=(const ThreadRegistryScope&) = delete;

 private:
  Registry* prev_;
};

}  // namespace gc::obs
