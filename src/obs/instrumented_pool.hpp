// A util::ThreadPool whose workers each record into a private
// obs::Registry, so the instruments a pool job bumps never race with the
// owner's or another worker's: the start hook installs worker w's registry
// on its thread before its first job. sim::SweepRunner runs each sweep on
// one; the controller itself runs every slot on the thread that calls
// step().
#pragma once

#include <optional>
#include <vector>

#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace gc::obs {

class InstrumentedPool {
 public:
  // `threads` as util::ThreadPoolOptions::num_threads (0 = hardware).
  explicit InstrumentedPool(int threads)
      : registries_(static_cast<std::size_t>(
            util::ThreadPool::resolve_num_threads(threads))),
        scopes_(registries_.size()),
        pool_({threads, [this](int w) { scopes_[w].emplace(&registries_[w]); },
               [this](int w) { scopes_[w].reset(); }}) {}
  // The workers' hooks hold `this`.
  InstrumentedPool(const InstrumentedPool&) = delete;
  InstrumentedPool& operator=(const InstrumentedPool&) = delete;

  util::ThreadPool& pool() { return pool_; }

  // Folds every worker's registry into `target` in worker-index order (FP
  // sums are order-sensitive, so totals do not depend on which worker ran
  // which job), then resets them. Call only while no job runs. Instrument
  // references the workers cached stay valid: reset zeroes values.
  void merge_into(Registry& target) {
    for (Registry& r : registries_) {
      target.merge_from(r);
      r.reset();
    }
  }

 private:
  std::vector<Registry> registries_;
  // Before pool_, so both outlive the joining workers (the stop hook
  // uninstalls each worker's scope during the pool's destruction).
  std::vector<std::optional<ThreadRegistryScope>> scopes_;
  util::ThreadPool pool_;
};

}  // namespace gc::obs
