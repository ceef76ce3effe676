// JSONL stream of per-solve simplex statistics (--lp-log FILE).
//
// JsonlSolveLog is a SolveStatsSink that appends one JSON object per solve
// — context label, problem dimensions, phase split, pivot/degeneracy
// accounting, status and wall time — so a run's LP workload can be replayed
// through jq / pandas without re-running the simulation:
//
//   {"ctx":"s1","rows":24,"cols":112,"nonzeros":448,"phase1_iters":31,...}
//
// Writes are serialized by an internal mutex, so one log may back several
// workspaces (the controller's s1/s3/s4 trio) or several threads at once;
// line order across threads is then wall-clock interleaving, which is why
// every line carries its context. Purely observational: attaching a log
// never changes solver results.
#pragma once

#include <mutex>
#include <string>

#include "lp/simplex.hpp"
#include "util/fsio.hpp"

namespace gc::lp {

class JsonlSolveLog : public SolveStatsSink {
 public:
  // Opens `path` fresh (resume_slot < 0) or cut back to resume_slot and
  // continued (util::JsonlWriter, keyed on "slot"). GC_CHECKs on failure
  // so a typoed directory fails at startup, not after the run.
  // (Destruction must not race on_solve; detach the log from every
  // workspace first.)
  explicit JsonlSolveLog(const std::string& path, int resume_slot = -1);

  void on_solve(const SolveStats& stats, const char* context) override;

  // Records the slot stamped into subsequent lines' "slot" field.
  void begin_slot(int slot) override;

  // Checked flush + fsync; invoked at checkpoint boundaries
  // (simulator.cpp).
  void flush() override;

  std::int64_t lines_written() const;

 private:
  mutable std::mutex mutex_;
  util::JsonlWriter out_;
  std::int64_t lines_ = 0;
  int slot_ = 0;
};

}  // namespace gc::lp
