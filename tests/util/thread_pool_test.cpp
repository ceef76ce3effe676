#include "util/thread_pool.hpp"

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/instrumented_pool.hpp"
#include "util/check.hpp"

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

ThreadPool::Options threads(int n) {
  ThreadPool::Options opt;
  opt.num_threads = n;
  return opt;
}

TEST(ParallelFor, NullPoolRunsEveryIndexOnTheCallerInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  parallel_for(nullptr, 5, [&](int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PoolRunsEachIndexExactlyOnce) {
  ThreadPool pool(threads(4));
  std::vector<std::atomic<int>> runs(200);
  parallel_for(&pool, 200, [&](int i) { runs[i].fetch_add(1); });
  for (int i = 0; i < 200; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(ParallelFor, LowestFailingIndexSurfacesAfterEveryIndexRan) {
  ThreadPool pool(threads(3));
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::atomic<int> ran{0};
    std::string caught;
    try {
      parallel_for(p, 40, [&](int i) {
        ran.fetch_add(1);
        if (i == 31 || i == 7 || i == 12)
          throw std::runtime_error(std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
      EXPECT_EQ(ran.load(), 40) << "rethrown before every index ran";
    }
    EXPECT_EQ(caught, "7") << (p ? "pool" : "inline");
  }
}

TEST(ParallelFor, ZeroIndicesIsANoOp) {
  ThreadPool pool(threads(2));
  bool called = false;
  parallel_for(nullptr, 0, [&](int) { called = true; });
  parallel_for(&pool, 0, [&](int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(InstrumentedPool, MergedCountersMatchAtEveryWorkerCount) {
  for (int workers : {1, 2, 4}) {
    obs::InstrumentedPool instrumented(workers);
    EXPECT_EQ(instrumented.pool().num_threads(), workers);
    obs::Registry target;
    for (int round = 0; round < 2; ++round) {
      parallel_for(&instrumented.pool(), 64, [](int i) {
        obs::registry().counter("test.jobs").add();
        obs::registry().counter("test.index_sum").add(i);
        obs::registry().histogram("test.index").observe(i);
      });
      instrumented.merge_into(target);
    }
    // Two rounds: the merge resets the workers, so nothing is folded twice.
    EXPECT_EQ(target.counter("test.jobs").total(), 128) << workers;
    EXPECT_EQ(target.counter("test.index_sum").total(), 2 * 2016) << workers;
    EXPECT_EQ(target.histogram("test.index").count(), 128) << workers;
    EXPECT_EQ(target.histogram("test.index").max(), 63) << workers;
    // The caller's own registry saw none of it.
    EXPECT_EQ(obs::global_registry().counter("test.jobs").total(), 0);
  }
}

}  // namespace
}  // namespace gc::util
