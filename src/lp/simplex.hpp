// Two-phase primal simplex for bounded-variable linear programs.
//
// Method: rows are converted to equalities with slack variables, and every
// structural variable starts nonbasic at its lower bound. The starting
// basis is a slack crash (Bixby, "Solving real-world linear programs",
// Oper. Res. 2002): a <= row whose residual at that start is >= 0 starts
// with its slack basic, and a >= row whose residual is <= 0 starts with
// its surplus basic (the row negated so the surplus enters at +1). Only
// the other rows -- "=" rows and rows whose residual has the wrong sign --
// get an artificial variable. Phase I minimizes the sum of artificials
// (infeasibility) and runs only when at least one exists, so a packing LP
// (<= rows, b >= 0, x >= 0) goes straight to phase II. Phase II minimizes
// the caller's objective with the artificials pinned to zero. Nonbasic
// variables rest at a finite bound; the tableau (B^-1 A, augmented with
// B^-1 b) is updated by elementary row operations per pivot, with periodic
// recomputation of basic values to control drift.
//
// Pricing is Dantzig (most negative reduced cost) with a permanent switch to
// Bland's rule after a stall, which guarantees termination on degenerate
// problems.
//
// Storage: each tableau row is a sorted list of its nonzero (column, value)
// entries, so pricing and pivoting cost follows the nonzeros rather than
// rows x columns. The former whole-network S1 relaxation of a 492-node
// run grew to ~1500 rows x ~1000 columns with ~12k nonzeros after
// fill-in, where a row-major dense array was ~25x slower; S1 now solves
// one LP per interference cluster (at most 5 columns on the static
// workloads, up to ~1200 with walking users at 492 nodes). Small LPs
// that fill in favour a dense array, but the slack crash start removes
// most of their pivots: the lower bound's 22-row matching LP takes
// 0.36-0.64 ms per solve, against 1.0-1.6 ms from an all-artificial
// start and 0.8-1.0 ms with the former dense tableau (docs/PERFORMANCE.md
// "One simplex storage").
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "lp/model.hpp"

namespace gc::lp {

enum class Status {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  // Watchdog outcomes (fault tolerance; see docs/ROBUSTNESS.md): the solve
  // exceeded its wall-clock budget, or the tableau degenerated into NaN /
  // infinity. Callers treat both like IterationLimit: no usable solution.
  TimeLimit,
  NumericalError,
};

const char* to_string(Status s);

struct Options {
  int max_iterations = 200000;
  // Wall-clock budget per solve in seconds; 0 (the default) = unlimited.
  // Checked every few pivots, so the overshoot is bounded by a handful of
  // iterations. Exceeding it returns Status::TimeLimit.
  double max_seconds = 0.0;
  // Feasibility tolerance on bounds / rows (absolute, relative to the
  // problem's magnitude which callers keep O(1)..O(1e6)).
  double feas_tol = 1e-7;
  // Reduced-cost optimality tolerance.
  double opt_tol = 1e-7;
  // Minimum |pivot| accepted.
  double pivot_tol = 1e-9;
  // Iterations without objective improvement before switching to Bland.
  int stall_limit = 200;
  // Recompute basic values from the tableau every this many pivots.
  int refresh_every = 128;
};

struct Solution {
  Status status = Status::IterationLimit;
  double objective = 0.0;
  std::vector<double> x;  // structural variables only
  int iterations = 0;
  // Residual infeasibility the solver itself measured (phase I objective).
  double infeasibility = 0.0;
};

// Per-solve introspection record, filled by every solve (workspace or not)
// and kept in Workspace::last_stats(). Collection is a handful of integer
// increments inside loops that already do O(rows*cols) arithmetic, so it is
// always on — only the lp.* registry instruments are compiled out under
// GC_OBS_DISABLE. Purely observational: nothing here feeds back into the
// solve, so results are bit-identical with or without a sink attached.
struct SolveStats {
  // Problem dimensions as the caller posed them (structural variables;
  // slacks/artificials excluded).
  int rows = 0;
  int cols = 0;
  int nonzeros = 0;  // coefficient entries across all rows

  // Work split by phase (phase I drives artificials out, phase II optimizes
  // the caller's objective). iterations = pivots + bound flips.
  int phase1_iterations = 0;
  int phase2_iterations = 0;
  int pivots = 0;
  // Pivots that moved the entering variable by (numerically) zero — the
  // degeneracy that makes simplex stall on big scheduling LPs.
  int degenerate_pivots = 0;
  int bound_flips = 0;
  int refactorizations = 0;  // periodic basic-value recomputations
  bool bland = false;        // the stall guard switched to Bland's rule

  // Inert: always false and 0, as the solver has no warm starts.
  // perfbench only; ROADMAP item 1 deletes them.
  bool warm_attempted = false;
  int warm_vars_reused = 0;

  // Numeric-repair events: end-of-solve bound clamps that moved a value by
  // more than drift noise, plus NaN/inf detections (each also surfaces as
  // Status::NumericalError).
  int numeric_repairs = 0;

  double wall_s = 0.0;
  Status status = Status::IterationLimit;
};

// Receiver for per-solve statistics (e.g. lp::JsonlSolveLog). `context` is
// the call-site label the owning Workspace carries ("s1", "s3", "s4", or ""
// for unlabeled workspaces). Implementations must be safe to share across
// threads if the workspace owners run concurrently.
class SolveStatsSink {
 public:
  virtual ~SolveStatsSink() = default;
  virtual void on_solve(const SolveStats& stats, const char* context) = 0;
  // The controller announces the slot it is about to solve for, so sinks
  // can stamp records with it (JsonlSolveLog's "slot" field) and resume
  // logic can truncate a crashed run's log back to a slot boundary.
  virtual void begin_slot(int /*slot*/) {}
  // Durability point: flush buffered lines to stable storage. Called at
  // every checkpoint boundary so log tails survive a SIGKILL.
  virtual void flush() {}
};

// Where a variable rests between pivots (part of the Workspace's storage).
enum class VarState : std::uint8_t { AtLower, AtUpper, Basic };

// Caller-owned, reusable solver state.
//
// The tableau, bounds, cost, basis and scratch vectors live here and are
// resized (std::vector::assign — capacity is kept) instead of freshly
// allocated on every solve. S1 solves each interference cluster's
// sequential-fix series through a Workspace of its own, which keeps no
// capacity beyond that cluster. The opt-in LP solvers of S3 and S4 each
// hold one Workspace per controller call site and amortize all per-solve
// allocation away after the first slot. A Workspace must not be shared
// between concurrent solves.
struct Tableau;
struct WorkspaceHooks;
class SimplexEngine;

class Workspace {
 public:
  // Inert: always empty, as the solver keeps no state between solves.
  // perfbench only; ROADMAP item 1 deletes it.
  std::vector<std::uint8_t> export_recorded_states() const { return {}; }

  // Introspection (docs/PERFORMANCE.md "Profiling workflow"): the most
  // recent solve's statistics, refreshed by every solve through this
  // workspace.
  const SolveStats& last_stats() const { return last_stats_; }

  // Labels this workspace's solves for sinks and logs (one workspace per
  // LP-backed subproblem is the intended shape, so the label doubles as
  // the solve class: "s1", "s3", "s4"). Must outlive the workspace; use
  // string literals.
  void set_stats_context(const char* context) { stats_context_ = context; }
  const char* stats_context() const { return stats_context_; }

  // Streams every solve's SolveStats to `sink` (nullptr detaches). The
  // sink observes only; solver results are unaffected.
  void set_stats_sink(SolveStatsSink* sink) { stats_sink_ = sink; }
  SolveStatsSink* stats_sink() const { return stats_sink_; }

 private:
  friend class SimplexEngine;
  friend struct Tableau;
  friend struct WorkspaceHooks;
  std::vector<double> lo_, hi_, cost_, xb_, dscratch_;
  std::vector<VarState> state_;
  std::vector<int> basis_;
  // Tableau rows (sorted nonzero (column, value) lists), the rhs column,
  // and a merge scratch row.
  std::vector<std::vector<std::pair<int, double>>> rows_;
  std::vector<double> rhs_;
  std::vector<std::pair<int, double>> merge_;
  // Entering-column cache: gathered once per iteration, it serves the
  // ratio test, bound flips, basic-value updates and the pivot's row
  // eliminations.
  std::vector<std::pair<int, double>> colbuf_;
  // Introspection state (observation only).
  SolveStats last_stats_;
  const char* stats_context_ = "";
  SolveStatsSink* stats_sink_ = nullptr;
};

Solution solve(const Model& model, const Options& options = {});

// Same solver, but all working memory lives in (and persists through)
// `workspace`. Results are identical to the workspace-free overload.
Solution solve(const Model& model, const Options& options,
               Workspace& workspace);

}  // namespace gc::lp
