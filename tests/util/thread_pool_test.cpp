#include "util/thread_pool.hpp"

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace gc::util {
namespace {

TEST(ThreadPool, RunsEveryJob) {
  ThreadPool::Options opt;
  opt.num_threads = 4;
  ThreadPool pool(opt);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, HooksFireOncePerWorkerWithDistinctIndices) {
  std::mutex mu;
  std::set<int> started, stopped;
  {
    ThreadPool::Options opt;
    opt.num_threads = 3;
    opt.on_thread_start = [&](int w) {
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_TRUE(started.insert(w).second) << "start hook repeated for " << w;
    };
    opt.on_thread_stop = [&](int w) {
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_TRUE(stopped.insert(w).second) << "stop hook repeated for " << w;
    };
    ThreadPool pool(opt);
    pool.submit([] {});
    pool.wait_idle();
  }
  EXPECT_EQ(started, (std::set<int>{0, 1, 2}));
  EXPECT_EQ(stopped, (std::set<int>{0, 1, 2}));
}

TEST(ThreadPool, DestructorDrainsQueuedJobs) {
  std::atomic<int> count{0};
  {
    ThreadPool::Options opt;
    opt.num_threads = 2;
    ThreadPool pool(opt);
    for (int i = 0; i < 50; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }  // destructor must run the backlog before joining
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, JobsRunOnWorkerThreadsNotTheCaller) {
  ThreadPool::Options opt;
  opt.num_threads = 1;
  ThreadPool pool(opt);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id job_thread;
  pool.submit([&job_thread] { job_thread = std::this_thread::get_id(); });
  pool.wait_idle();
  EXPECT_NE(job_thread, caller);
}

TEST(ThreadPool, WaitIdleWithNoWorkReturnsImmediately) {
  ThreadPool::Options opt;
  opt.num_threads = 2;
  ThreadPool pool(opt);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPool, ResolveNumThreads) {
  EXPECT_EQ(ThreadPool::resolve_num_threads(3), 3);
  EXPECT_GE(ThreadPool::resolve_num_threads(0), 1);
}

}  // namespace
}  // namespace gc::util
