// Parallel sweep engine: fans independent (scenario, seed) simulation jobs
// across a thread pool with per-seed determinism.
//
// Every job is self-contained — its own NetworkModel, controller, and RNG
// stream (SimOptions::input_seed) — so jobs share no mutable state and the
// per-seed Metrics a sweep returns are bit-identical to running the same
// jobs serially, at any thread count, in any completion order. The jobs
// run through util::parallel_for, one per index, on an
// obs::InstrumentedPool: the only cross-thread state is observability, and
// each worker thread records into a private obs::Registry that is folded
// into the target registry in worker-index order after the last job.
// Counter/histogram totals are therefore independent of the job-to-worker
// assignment; gauges follow deterministic merge-order last-writer-wins —
// the highest-index worker that set a gauge supplies its final value,
// independent of thread timing (see obs::Gauge::merge_from).
//
// docs/PERFORMANCE.md covers the threading model, the determinism
// guarantees, and how the benches use this.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/controller.hpp"
#include "sim/mobility.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace gc::obs {
class Registry;
}

namespace gc::sim {

// One simulation in a sweep: scenario + controller knobs + run length. The
// usual sweep varies scenario.seed / sim.input_seed / V across jobs.
struct SimJob {
  ScenarioConfig scenario;
  double V = 3.0;
  int slots = 0;
  SimOptions sim;
  // Users walk random-waypoint between slots when set.
  std::optional<MobilityConfig> mobility;
  // Overrides scenario.controller_options() when set.
  std::optional<core::ControllerOptions> controller;
};

struct SweepOptions {
  // Worker threads; 0 = std::thread::hardware_concurrency(). 1 still runs
  // jobs on a (single) worker thread, never inline on the caller — inline
  // execution would write through the calling thread's already-resolved
  // instrument references into the wrong registry.
  int threads = 0;
  // Where worker registries are folded after the join; nullptr = the
  // process-global registry.
  obs::Registry* merge_into = nullptr;
  // Fleet telemetry (obs::SnapshotWriter, docs/OBSERVABILITY.md): when set,
  // a fleet snapshot is written (atomically, plus a .prom twin) after every
  // completed job — progress only, since worker registries are still being
  // written — and once after the join with the fully merged registry, so
  // the final snapshot's counter totals equal the merged registry's. Must
  // not collide with any job's own snapshot path.
  std::string snapshot_path;
};

// Runs `job` start to finish on the calling thread: builds the model,
// constructs the controller, runs the simulation. The unit of work
// SweepRunner fans out; exposed so serial baselines measure exactly the
// same work.
Metrics run_job(const SimJob& job);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  // The resolved worker count.
  int threads() const { return threads_; }

  // Runs every job, returning Metrics in job order. Jobs that write files
  // must not collide: trace/checkpoint paths are required to be distinct
  // across the batch (GC_CHECK). If any job throws, the first failure (in
  // job order) is rethrown after all jobs have finished and registries have
  // been merged.
  std::vector<Metrics> run(const std::vector<SimJob>& jobs);

  // The underlying engine: util::parallel_for over fn(0..n-1), each call
  // on a worker thread with a worker-private registry installed; waits,
  // merges registries, then rethrows the first captured exception (in
  // index order), if any. `fn` must be safe to call concurrently for
  // distinct indices.
  void run_indexed(int n, const std::function<void(int)>& fn);

  // run_indexed with a result slot per index: out[i] = fn(i). R must be
  // default-constructible and movable; fn runs on worker threads.
  template <typename R, typename Fn>
  std::vector<R> map(int n, Fn&& fn) {
    std::vector<R> out(static_cast<std::size_t>(n));
    run_indexed(n, [&](int i) { out[static_cast<std::size_t>(i)] = fn(i); });
    return out;
  }

 private:
  SweepOptions options_;
  int threads_ = 1;
};

}  // namespace gc::sim
