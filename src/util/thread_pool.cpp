#include "util/thread_pool.hpp"

#include <utility>

#include "util/check.hpp"

namespace gc::util {

int ThreadPool::resolve_num_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(Options options) : options_(std::move(options)) {
  GC_CHECK_MSG(options_.num_threads >= 0,
               "thread pool needs num_threads >= 0");
  const int n = resolve_num_threads(options_.num_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    GC_CHECK_MSG(!stop_, "submit on a stopped thread pool");
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(int index) {
  if (options_.on_thread_start) options_.on_thread_start(index);
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain remaining work even when stopping: the destructor promises
      // queued jobs run before the join.
      if (queue_.empty()) break;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
  if (options_.on_thread_stop) options_.on_thread_stop(index);
}

}  // namespace gc::util
