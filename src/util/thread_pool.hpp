// Minimal fixed-size thread pool: a single mutex-protected FIFO queue, no
// work-stealing, no futures, no task graph. Nothing on the run path uses
// it; every slot of a run executes on the thread that calls step(), and a
// replicate study runs one process per seed. It stays for perfbench's
// worker pool until that pool goes (ROADMAP item 1).
//
// on_thread_start runs ON each worker thread before it takes its first job
// (and on_thread_stop after its last), which is where a caller installs a
// worker-private obs::Registry with obs::ThreadRegistryScope. Hooks receive
// the worker index in [0, num_threads).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gc::util {

// Namespace-scope (not nested) so it is complete wherever it is used as a
// defaulted argument; ThreadPool::Options aliases it.
struct ThreadPoolOptions {
  // 0 = std::thread::hardware_concurrency() (at least 1).
  int num_threads = 0;
  // Run on each worker thread around its job loop; may be empty.
  std::function<void(int)> on_thread_start;
  std::function<void(int)> on_thread_stop;
};

class ThreadPool {
 public:
  using Options = ThreadPoolOptions;

  explicit ThreadPool(Options options = {});
  // Waits for queued work to drain, then joins all workers (running
  // on_thread_stop on each).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues a job. Jobs must not throw.
  void submit(std::function<void()> job);

  // Blocks until the queue is empty and no job is executing.
  void wait_idle();

  // The resolved thread count `options` would produce.
  static int resolve_num_threads(int requested);

 private:
  void worker_loop(int index);

  Options options_;
  std::mutex mutex_;
  std::condition_variable work_cv_;   // signals workers: job or shutdown
  std::condition_variable idle_cv_;   // signals wait_idle: all drained
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;  // jobs currently executing
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace gc::util
