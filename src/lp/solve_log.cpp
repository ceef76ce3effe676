#include "lp/solve_log.hpp"

#include <cstdio>

namespace gc::lp {

JsonlSolveLog::JsonlSolveLog(const std::string& path, int resume_slot)
    : out_(path, "slot", resume_slot, "LP solve log") {}

void JsonlSolveLog::on_solve(const SolveStats& stats, const char* context) {
  // One self-contained line per solve; keys stay flat so `jq -c` and
  // column-oriented readers need no schema.
  char buf[640];
  std::lock_guard<std::mutex> lock(mutex_);
  std::snprintf(
      buf, sizeof buf,
      "{\"ctx\":\"%s\",\"slot\":%d,\"rows\":%d,\"cols\":%d,\"nonzeros\":%d,"
      "\"phase1_iters\":%d,\"phase2_iters\":%d,\"pivots\":%d,"
      "\"degenerate_pivots\":%d,\"bound_flips\":%d,\"refactorizations\":%d,"
      "\"bland\":%s,\"warm_attempted\":%s,\"warm_vars_reused\":%d,"
      "\"warm_cross_slot\":%s,\"numeric_repairs\":%d,\"status\":\"%s\","
      "\"wall_s\":%.9f}",
      context != nullptr ? context : "", slot_, stats.rows, stats.cols,
      stats.nonzeros, stats.phase1_iterations, stats.phase2_iterations,
      stats.pivots, stats.degenerate_pivots, stats.bound_flips,
      stats.refactorizations, stats.bland ? "true" : "false",
      stats.warm_attempted ? "true" : "false", stats.warm_vars_reused,
      stats.warm_cross_slot ? "true" : "false", stats.numeric_repairs,
      to_string(stats.status), stats.wall_s);
  out_.write_line(buf);
  ++lines_;
}

void JsonlSolveLog::begin_slot(int slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  slot_ = slot;
}

void JsonlSolveLog::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
}

std::int64_t JsonlSolveLog::lines_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

}  // namespace gc::lp
