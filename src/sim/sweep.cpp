#include "sim/sweep.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "obs/instrumented_pool.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace gc::sim {

Metrics run_job(const SimJob& job) {
  core::NetworkModel model = job.scenario.build();
  const core::ControllerOptions opts =
      job.controller ? *job.controller : job.scenario.controller_options();
  core::LyapunovController controller(model, job.V, opts);
  if (job.mobility)
    return run_simulation_mobile(model, controller, job.slots, *job.mobility,
                                 job.sim);
  return run_simulation(model, controller, job.slots, job.sim);
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options)),
      threads_(util::ThreadPool::resolve_num_threads(options_.threads)) {}

void SweepRunner::run_indexed(int n, const std::function<void(int)>& fn) {
  GC_CHECK_MSG(n >= 0, "sweep size must be >= 0");
  if (n == 0) return;

  // Fleet telemetry: progress snapshots after each completed job (workers
  // race to finish, so a mutex serializes the writer), a full one with the
  // merged registry after the join. Job completions are Metrics-neutral —
  // snapshots read nothing a job writes.
  std::unique_ptr<obs::SnapshotWriter> snapshots;
  if (!options_.snapshot_path.empty())
    snapshots =
        std::make_unique<obs::SnapshotWriter>(options_.snapshot_path, 1);
  std::mutex snapshot_mutex;
  std::atomic<int> jobs_done{0};
  const obs::Span fleet_clock(nullptr);
  const auto write_fleet = [&](int done, const obs::Registry* registry) {
    obs::SnapshotData d;
    d.wall_s = fleet_clock.elapsed_s();
    d.jobs_done = done;
    d.jobs_total = n;
    if (d.wall_s > 0.0 && done > 0 && done < n)
      d.eta_s = (n - done) * d.wall_s / done;
    if (registry != nullptr) {
      // Fleet policy aggregates (src/policy): the awake_bs gauge is only
      // ever SET by an active SleepController, so a set gauge in the merged
      // registry says a policy ran; the counters then carry the fleet-wide
      // totals. Policy-free sweeps keep the -1 sentinel and no policy
      // section is rendered.
      for (const auto& [name, g] : registry->gauges())
        if (name == "policy.awake_bs" && g->was_set())
          d.policy_awake_bs = static_cast<int>(g->value());
      if (d.policy_awake_bs >= 0) {
        for (const auto& [name, c] : registry->counters()) {
          if (name == "policy.switches") d.policy_switches = c->total();
          if (name == "policy.switch_energy_j")
            d.policy_switch_energy_j = c->total();
          if (name == "policy.sleep_slots") d.policy_sleep_slots = c->total();
        }
      }
    }
    d.registry = registry;
    snapshots->write(d);
  };
  // A progress snapshot after every job, failed ones included.
  const auto job_done = [&] {
    if (!snapshots) return;
    const int done = jobs_done.fetch_add(1) + 1;
    std::lock_guard<std::mutex> lock(snapshot_mutex);
    write_fleet(done, nullptr);
  };

  // Every job runs on a worker, even at one thread: inline execution would
  // write through the calling thread's instrument references. The workers'
  // registries are merged before the first failure is rethrown.
  obs::InstrumentedPool workers(threads_);
  obs::Registry& target =
      options_.merge_into ? *options_.merge_into : obs::global_registry();
  const auto merge = [&] {
    workers.merge_into(target);
    if (snapshots) write_fleet(n, &target);
  };
  try {
    util::parallel_for(&workers.pool(), n, [&](int i) {
      try {
        obs::Span span("sweep.job", i);
        fn(i);
      } catch (...) {
        job_done();
        throw;
      }
      job_done();
    });
  } catch (...) {
    merge();
    throw;
  }
  merge();
}

std::vector<Metrics> SweepRunner::run(const std::vector<SimJob>& jobs) {
  // Jobs run concurrently, so any two writing the same file would race.
  // TraceSink serializes writes per sink, but two sinks truncating one path
  // still clobber each other — require distinct paths outright.
  std::set<std::string> trace_paths, checkpoint_paths, snapshot_paths;
  if (!options_.snapshot_path.empty())
    snapshot_paths.insert(options_.snapshot_path);
  for (const SimJob& job : jobs) {
    if (!job.sim.trace_path.empty())
      GC_CHECK_MSG(trace_paths.insert(job.sim.trace_path).second,
                   "sweep jobs share trace path " << job.sim.trace_path);
    if (!job.sim.checkpoint_path.empty())
      GC_CHECK_MSG(
          checkpoint_paths.insert(job.sim.checkpoint_path).second,
          "sweep jobs share checkpoint path " << job.sim.checkpoint_path);
    if (!job.sim.snapshot_path.empty())
      GC_CHECK_MSG(snapshot_paths.insert(job.sim.snapshot_path).second,
                   "sweep jobs share snapshot path "
                       << job.sim.snapshot_path
                       << " (also checked against the fleet snapshot path)");
  }
  return map<Metrics>(static_cast<int>(jobs.size()),
                      [&jobs](int i) { return run_job(jobs[i]); });
}

}  // namespace gc::sim
