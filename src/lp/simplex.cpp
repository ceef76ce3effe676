#include "lp/simplex.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace gc::lp {

namespace {

// Solver observability: volumes (solves, simplex iterations), the pivot /
// bound-flip split, refactorizations (periodic recomputation of the basic
// values, this tableau code's analogue of a basis refactorization), Bland
// fallbacks, and wall time per solve.
struct SimplexMetrics {
  obs::Counter& solves = obs::registry().counter("lp.solves");
  obs::Counter& iterations = obs::registry().counter("lp.iterations");
  obs::Counter& pivots = obs::registry().counter("lp.pivots");
  obs::Counter& bound_flips = obs::registry().counter("lp.bound_flips");
  obs::Counter& refactorizations =
      obs::registry().counter("lp.refactorizations");
  obs::Counter& bland_switches = obs::registry().counter("lp.bland_switches");
  // Watchdog trips: solves ended by the wall-clock budget or by NaN /
  // infinity detection instead of a clean status.
  obs::Counter& time_limits = obs::registry().counter("lp.time_limits");
  obs::Counter& numerical_errors =
      obs::registry().counter("lp.numerical_errors");
  obs::Histogram& solve_seconds =
      obs::registry().histogram("lp.solve_seconds");
  // Introspection split (SolveStats; docs/PERFORMANCE.md "Profiling
  // workflow"): phase-1 vs phase-2 work, degeneracy, numeric repairs, and
  // the posed problem's dimensions.
  obs::Counter& phase1_iterations =
      obs::registry().counter("lp.phase1_iterations");
  obs::Counter& phase2_iterations =
      obs::registry().counter("lp.phase2_iterations");
  obs::Counter& degenerate_pivots =
      obs::registry().counter("lp.degenerate_pivots");
  obs::Counter& numeric_repairs = obs::registry().counter("lp.numeric_repairs");
  obs::Histogram& rows = obs::registry().histogram("lp.rows");
  obs::Histogram& cols = obs::registry().histogram("lp.cols");
  obs::Histogram& nonzeros = obs::registry().histogram("lp.nonzeros");
};

SimplexMetrics& lp_metrics() {
  // thread_local: references resolve against the thread-current registry
  // (per-worker under the parallel sweep engine; see obs/registry.hpp).
  static thread_local SimplexMetrics m;
  return m;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::Optimal: return "Optimal";
    case Status::Infeasible: return "Infeasible";
    case Status::Unbounded: return "Unbounded";
    case Status::IterationLimit: return "IterationLimit";
    case Status::TimeLimit: return "TimeLimit";
    case Status::NumericalError: return "NumericalError";
  }
  return "?";
}

// Friend-only door into Workspace internals used by solve().
struct WorkspaceHooks {
  // Stores the finished solve's stats in the workspace and notifies its
  // sink, if any.
  static void publish_stats(Workspace& ws, const SolveStats& stats) {
    ws.last_stats_ = stats;
    if (ws.stats_sink_ != nullptr)
      ws.stats_sink_->on_solve(stats, ws.stats_context_);
  }
};

// Tableau storage: per-row sorted (column, value) entry lists plus a dense
// rhs column (B^-1 b). The engine reads coefficients only through these
// operations:
//   reset/load_rows/append_unit  build-time population
//   rhs/negate_row               rhs column + row orientation flips
//   scan_row                     nonzero (col, value) pairs, ascending col
//   price_accumulate             d[j] -= cb * a_ij over the row's nonzeros
//   gather_col                   nonzero (row, value) pairs, ascending row
//   pivot                        elementary row operations for one pivot
//
// Exact-zero results of row updates are dropped instead of stored. A zero
// coefficient contributes nothing to any engine decision (pricing
// eligibility, ratio test, basic-value updates, pivot row selection), so
// skipping it changes at most the sign of a zero the engine never reads.
// Fill-in stays bounded on this project's block-structured LPs (user
// blocks never couple to each other under pivoting), so the work per pivot
// follows the nonzeros, not rows x columns.
struct Tableau {
  using Entry = std::pair<int, double>;
  using Row = std::vector<Entry>;

  explicit Tableau(Workspace& ws)
      : rows(ws.rows_), rhs_(ws.rhs_), merge_(ws.merge_) {}

  void reset(int m_) {
    m = m_;
    if (static_cast<int>(rows.size()) < m) rows.resize(m);
    for (int r = 0; r < m; ++r) rows[r].clear();
    rhs_.assign(m, 0.0);
  }

  void load_rows(const Model& model) {
    for (int r = 0; r < m; ++r) {
      Row& row = rows[r];
      for (auto [v, c] : model.row_entries(r))
        if (c != 0.0) row.emplace_back(v, c);
      // Model merges duplicate coefficients, so columns are unique and the
      // sort puts them in ascending order.
      std::sort(row.begin(), row.end());
      rhs_[r] = model.row_rhs(r);
    }
  }

  // Build-time slack/artificial placement: both use columns strictly above
  // every column already in the row, so appending keeps rows sorted.
  void append_unit(int r, int j, double v) { rows[r].emplace_back(j, v); }

  double rhs(int r) const { return rhs_[r]; }

  void negate_row(int r) {
    for (auto& e : rows[r]) e.second = -e.second;
    rhs_[r] = -rhs_[r];
  }

  template <class F>
  void scan_row(int r, int jlimit, F&& f) const {
    for (const auto& [j, a] : rows[r]) {
      if (j >= jlimit) break;
      f(j, a);
    }
  }

  void price_accumulate(int i, double cb, double* d) const {
    for (const auto& [j, a] : rows[i]) d[j] -= cb * a;
  }

  void gather_col(int e, std::vector<Entry>& out) const {
    for (int i = 0; i < m; ++i) {
      const Row& row = rows[i];
      auto it = std::lower_bound(
          row.begin(), row.end(), e,
          [](const Entry& ent, int j) { return ent.first < j; });
      if (it != row.end() && it->first == e) out.emplace_back(i, it->second);
    }
  }

  // `col_cache` holds the entering column's nonzero entries as gathered
  // before this pivot; other rows' entries in that column are unchanged by
  // the pivot-row scaling, so the cached factors equal the live ones.
  void pivot(int row, int col, const std::vector<Entry>& col_cache) {
    Row& prow = rows[row];
    const double inv = 1.0 / value_at(prow, col);
    for (auto& e : prow) e.second *= inv;
    rhs_[row] *= inv;
    set_value(prow, col, 1.0);  // kill roundoff
    for (const auto& [i, f] : col_cache) {
      if (i == row) continue;
      merge_sub(rows[i], f, prow, col);
      rhs_[i] -= f * rhs_[row];
    }
  }

  std::vector<Row>& rows;
  std::vector<double>& rhs_;
  Row& merge_;
  int m = 0;

 private:
  static double value_at(const Row& row, int col) {
    auto it = std::lower_bound(
        row.begin(), row.end(), col,
        [](const Entry& ent, int j) { return ent.first < j; });
    return it != row.end() && it->first == col ? it->second : 0.0;
  }

  static void set_value(Row& row, int col, double v) {
    auto it = std::lower_bound(
        row.begin(), row.end(), col,
        [](const Entry& ent, int j) { return ent.first < j; });
    if (it != row.end() && it->first == col) it->second = v;
  }

  // irow -= f * prow as a sorted merge; the entering column `col` is
  // zeroed exactly, and entries whose update cancels to exactly 0.0 are
  // dropped.
  void merge_sub(Row& irow, double f, const Row& prow, int col) {
    merge_.clear();
    std::size_t a = 0, b = 0;
    const std::size_t na = irow.size(), nb = prow.size();
    constexpr int kEnd = std::numeric_limits<int>::max();
    while (a < na || b < nb) {
      const int ja = a < na ? irow[a].first : kEnd;
      const int jb = b < nb ? prow[b].first : kEnd;
      if (ja < jb) {
        if (ja != col) merge_.push_back(irow[a]);
        ++a;
      } else if (jb < ja) {
        if (jb != col) {
          const double v = -f * prow[b].second;
          if (v != 0.0) merge_.emplace_back(jb, v);
        }
        ++b;
      } else {
        if (ja != col) {
          const double v = irow[a].second - f * prow[b].second;
          if (v != 0.0) merge_.emplace_back(ja, v);
        }
        ++a;
        ++b;
      }
    }
    irow.swap(merge_);
  }
};

// The solver proper. All working vectors live in the caller's Workspace
// (bound by reference) so a long-lived workspace turns every per-solve
// allocation into an assign() over retained capacity.
class SimplexEngine {
 public:
  SimplexEngine(const Model& model, const Options& opt, Workspace& ws)
      : model_(model),
        opt_(opt),
        tb_(ws),
        lo_(ws.lo_),
        hi_(ws.hi_),
        cost_(ws.cost_),
        state_(ws.state_),
        basis_(ws.basis_),
        xb_(ws.xb_),
        dscratch_(ws.dscratch_),
        colbuf_(ws.colbuf_) {
    build();
  }

  Solution run();

  // Per-solve introspection collected while running (see SolveStats).
  // Dimensions, wall time and status are stamped by solve().
  const SolveStats& stats() const { return stats_; }

 private:
  void build();
  // One simplex phase on objective `cost_`.
  Status iterate(int* iter_budget);
  void recompute_basic_values();
  double current_cost() const;
  int price(bool bland);  // entering column or -1

  double nonbasic_value(int j) const {
    return state_[j] == VarState::AtUpper ? hi_[j] : lo_[j];
  }

  const Model& model_;
  const Options& opt_;
  Tableau tb_;

  int m_ = 0;        // rows
  int nstruct_ = 0;  // structural variables
  int ntot_ = 0;     // structural + slack + artificial

  std::vector<double>& lo_;
  std::vector<double>& hi_;
  std::vector<double>& cost_;
  std::vector<VarState>& state_;
  std::vector<int>& basis_;  // basis_[i] = variable basic in row i
  std::vector<double>& xb_;  // value of basis_[i]
  std::vector<double>& dscratch_;
  std::vector<std::pair<int, double>>& colbuf_;
  int first_artificial_ = 0;
  SolveStats stats_;
  // Wall-clock watchdog (Options::max_seconds); invalid when unlimited.
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;

  // NaN / infinity anywhere in the basic values: the tableau degenerated
  // and no further pivot can be trusted.
  bool values_corrupt() const {
    for (double v : xb_)
      if (!std::isfinite(v)) return true;
    return false;
  }
};

void SimplexEngine::build() {
  m_ = model_.num_rows();
  nstruct_ = model_.num_variables();
  tb_.reset(m_);
  basis_.assign(m_, -1);
  xb_.assign(m_, 0.0);

  lo_.assign(nstruct_, 0.0);
  hi_.assign(nstruct_, kInf);
  for (int j = 0; j < nstruct_; ++j) {
    lo_[j] = model_.lower(j);
    hi_[j] = model_.upper(j);
    GC_CHECK_MSG(std::isfinite(lo_[j]),
                 "variable " << j << " lacks a finite lower bound");
  }

  tb_.load_rows(model_);

  // Slacks: "<=" gets a +1 slack in [0, inf); ">=" a -1 surplus in [0, inf).
  // Slack crash: with every structural at its lower bound, a row whose
  // slack (surplus) takes a non-negative value starts with it basic; a ">="
  // row is negated first so its surplus enters the basis at +1. Every other
  // row is marked (basis_ -1) for an artificial, negated when its residual
  // is negative so the artificial starts non-negative too.
  int s = nstruct_;
  int nart = 0;
  for (int r = 0; r < m_; ++r) {
    double resid = tb_.rhs(r);
    tb_.scan_row(r, nstruct_, [&](int j, double a) { resid -= a * lo_[j]; });
    const Sense sense = model_.row_sense(r);
    if (sense != Sense::Equal) {
      const double sign = sense == Sense::LessEqual ? 1.0 : -1.0;
      tb_.append_unit(r, s, sign);
      if (sign * resid >= 0.0) {
        if (sign < 0.0) tb_.negate_row(r);
        basis_[r] = s;
        xb_[r] = sign * resid;
      }
      ++s;
    }
    if (basis_[r] < 0) {
      if (resid < 0.0) tb_.negate_row(r);
      xb_[r] = std::abs(resid);
      ++nart;
    }
  }

  first_artificial_ = s;
  ntot_ = first_artificial_ + nart;
  lo_.resize(ntot_, 0.0);
  hi_.resize(ntot_, kInf);
  cost_.assign(ntot_, 0.0);
  state_.assign(ntot_, VarState::AtLower);
  dscratch_.assign(ntot_, 0.0);

  // Artificials: columns above every slack, so appending keeps rows sorted.
  int art = first_artificial_;
  for (int r = 0; r < m_; ++r) {
    if (basis_[r] < 0) {
      tb_.append_unit(r, art, 1.0);
      basis_[r] = art++;
    }
    state_[basis_[r]] = VarState::Basic;
  }
}

double SimplexEngine::current_cost() const {
  double c = 0.0;
  for (int j = 0; j < ntot_; ++j)
    if (state_[j] != VarState::Basic && cost_[j] != 0.0)
      c += cost_[j] * nonbasic_value(j);
  for (int i = 0; i < m_; ++i) c += cost_[basis_[i]] * xb_[i];
  return c;
}

void SimplexEngine::recompute_basic_values() {
  lp_metrics().refactorizations.add();
  ++stats_.refactorizations;
  // x_B = (B^-1 b) - sum_{nonbasic j} (B^-1 A_j) * xval_j; both factors live
  // in the updated tableau.
  for (int i = 0; i < m_; ++i) {
    double v = tb_.rhs(i);
    tb_.scan_row(i, ntot_, [&](int j, double a) {
      if (state_[j] == VarState::Basic) return;
      const double xv = nonbasic_value(j);
      if (xv != 0.0) v -= a * xv;
    });
    xb_[i] = v;
  }
}

int SimplexEngine::price(bool bland) {
  // Reduced costs d_j = c_j - c_B^T (B^-1 A_j), accumulated row-wise so the
  // tableau is walked storage-friendly.
  double* d = dscratch_.data();
  for (int j = 0; j < ntot_; ++j) d[j] = cost_[j];
  for (int i = 0; i < m_; ++i) {
    const double cb = cost_[basis_[i]];
    if (cb == 0.0) continue;
    tb_.price_accumulate(i, cb, d);
  }

  int best = -1;
  double best_score = 0.0;
  for (int j = 0; j < ntot_; ++j) {
    if (state_[j] == VarState::Basic) continue;
    if (hi_[j] - lo_[j] <= 0.0) continue;  // fixed, cannot move
    double score = 0.0;
    if (state_[j] == VarState::AtLower && d[j] < -opt_.opt_tol)
      score = -d[j];
    else if (state_[j] == VarState::AtUpper && d[j] > opt_.opt_tol)
      score = d[j];
    if (score > 0.0) {
      if (bland) return j;  // lowest eligible index
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
  }
  return best;
}

Status SimplexEngine::iterate(int* iter_budget) {
  bool bland = false;
  int stall = 0;
  double best_obj = current_cost();
  int since_refresh = 0;
  int since_watchdog = 0;
  constexpr double kTie = 1e-10;

  while (true) {
    if (*iter_budget <= 0) return Status::IterationLimit;
    // Watchdog: deadline and NaN screens every few pivots, cheap enough to
    // be negligible yet tight enough that a pathological solve cannot hold
    // the controller's slot hostage.
    if (++since_watchdog >= 32) {
      since_watchdog = 0;
      if (has_deadline_ && std::chrono::steady_clock::now() > deadline_)
        return Status::TimeLimit;
      if (values_corrupt()) return Status::NumericalError;
    }
    const int e = price(bland);
    if (e < 0) return Status::Optimal;
    --*iter_budget;

    const double dir = state_[e] == VarState::AtLower ? 1.0 : -1.0;
    const double span = hi_[e] - lo_[e];  // may be +inf

    // The entering column is gathered once per iteration; its nonzero
    // entries (ascending row) serve the ratio test, the bound-flip / step
    // updates of the basic values, and the pivot's row eliminations.
    colbuf_.clear();
    tb_.gather_col(e, colbuf_);

    // Ratio test: entering moves by t >= 0 in direction dir; basic i changes
    // at rate delta_i = -dir * T(i, e).
    double t_best = kInf;
    int leave_row = -1;
    bool leave_at_upper = false;
    double leave_pivot = 0.0;
    for (const auto& [i, a] : colbuf_) {
      if (std::abs(a) < opt_.pivot_tol) continue;
      const double delta = -dir * a;
      const int b = basis_[i];
      double t;
      bool to_upper;
      if (delta > 0.0) {
        if (!std::isfinite(hi_[b])) continue;
        t = (hi_[b] - xb_[i]) / delta;
        to_upper = true;
      } else {
        t = (lo_[b] - xb_[i]) / delta;  // delta<0, numerator<=0 -> t>=0
        to_upper = false;
      }
      if (t < 0.0) t = 0.0;  // roundoff guard
      bool take = false;
      if (leave_row < 0 || t < t_best - kTie) {
        take = true;
      } else if (t <= t_best + kTie) {
        take = bland ? (b < basis_[leave_row])
                     : (std::abs(a) > std::abs(leave_pivot));
      }
      if (take) {
        t_best = std::min(t, t_best);
        leave_row = i;
        leave_at_upper = to_upper;
        leave_pivot = a;
      }
    }

    if (span <= t_best) {
      // Entering hits its own opposite bound first: bound flip, no pivot.
      if (!std::isfinite(span)) return Status::Unbounded;
      lp_metrics().bound_flips.add();
      ++stats_.bound_flips;
      state_[e] = state_[e] == VarState::AtLower ? VarState::AtUpper
                                                 : VarState::AtLower;
      for (const auto& [i, a] : colbuf_) xb_[i] -= dir * a * span;
    } else {
      GC_CHECK(leave_row >= 0);
      const double t = t_best;
      const double enter_val = nonbasic_value(e) + dir * t;
      for (const auto& [i, a] : colbuf_) {
        if (i == leave_row) continue;
        xb_[i] -= dir * a * t;
      }
      const int leaving = basis_[leave_row];
      state_[leaving] = leave_at_upper ? VarState::AtUpper : VarState::AtLower;
      lp_metrics().pivots.add();
      ++stats_.pivots;
      // A zero-length step is the degeneracy that stalls simplex on big
      // scheduling LPs — worth its own count.
      if (t <= kTie) ++stats_.degenerate_pivots;
      tb_.pivot(leave_row, e, colbuf_);
      basis_[leave_row] = e;
      state_[e] = VarState::Basic;
      xb_[leave_row] = enter_val;
      if (++since_refresh >= opt_.refresh_every) {
        recompute_basic_values();
        since_refresh = 0;
      }
    }

    // Stall detection -> permanent Bland's rule (termination guarantee).
    const double obj = current_cost();
    if (obj < best_obj - 1e-10 * (1.0 + std::abs(best_obj))) {
      best_obj = obj;
      stall = 0;
    } else if (!bland && ++stall >= opt_.stall_limit) {
      bland = true;
      stats_.bland = true;
      lp_metrics().bland_switches.add();
    }
  }
}

Solution SimplexEngine::run() {
  Solution sol;
  int budget = opt_.max_iterations;
  if (opt_.max_seconds > 0.0) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(opt_.max_seconds));
  }

  // Phase I: minimize the sum of artificials. Without any, the slack crash
  // basis is already feasible.
  Status st = Status::Optimal;
  if (first_artificial_ < ntot_) {
    for (int j = first_artificial_; j < ntot_; ++j) cost_[j] = 1.0;
    st = iterate(&budget);
    recompute_basic_values();
    const double infeas = current_cost();
    sol.infeasibility = infeas;
    sol.iterations = opt_.max_iterations - budget;
    stats_.phase1_iterations = sol.iterations;
    if (!std::isfinite(infeas) || values_corrupt()) {
      st = Status::NumericalError;
      ++stats_.numeric_repairs;
    }
    if (st == Status::IterationLimit || st == Status::TimeLimit ||
        st == Status::NumericalError) {
      sol.status = st;
      return sol;
    }
    GC_CHECK_MSG(st != Status::Unbounded, "phase I cannot be unbounded");
    if (infeas > opt_.feas_tol * (1.0 + std::abs(infeas))) {
      sol.status = Status::Infeasible;
      return sol;
    }

    // Phase II pins the artificials at zero.
    for (int a = first_artificial_; a < ntot_; ++a) {
      hi_[a] = 0.0;
      if (state_[a] == VarState::AtUpper) state_[a] = VarState::AtLower;
      cost_[a] = 0.0;
    }
  }

  // Phase II: minimize the caller's objective.
  for (int j = 0; j < nstruct_; ++j) cost_[j] = model_.objective_coeff(j);
  st = iterate(&budget);
  recompute_basic_values();
  sol.iterations = opt_.max_iterations - budget;
  stats_.phase2_iterations = sol.iterations - stats_.phase1_iterations;
  if (values_corrupt()) {
    st = Status::NumericalError;
    ++stats_.numeric_repairs;
  }
  sol.status = st;

  sol.x.assign(nstruct_, 0.0);
  for (int j = 0; j < nstruct_; ++j)
    if (state_[j] != VarState::Basic) sol.x[j] = nonbasic_value(j);
  for (int i = 0; i < m_; ++i)
    if (basis_[i] < nstruct_) sol.x[basis_[i]] = xb_[i];
  // Clamp tiny bound violations left by floating-point drift. Clamps that
  // move a value beyond drift noise count as numeric repairs (SolveStats).
  constexpr double kDriftNoise = 1e-9;
  for (int j = 0; j < nstruct_; ++j) {
    const double before = sol.x[j];
    sol.x[j] = std::max(sol.x[j], model_.lower(j));
    if (std::isfinite(model_.upper(j)))
      sol.x[j] = std::min(sol.x[j], model_.upper(j));
    if (std::abs(sol.x[j] - before) > kDriftNoise) ++stats_.numeric_repairs;
  }
  sol.objective = model_.objective_value(sol.x);
  return sol;
}

Solution solve(const Model& model, const Options& options,
               Workspace& workspace) {
  SimplexMetrics& m = lp_metrics();
  // Span dim = structural columns, so the profiler can attribute wall time
  // to LP size classes (obs/profile.hpp).
  obs::Span span("lp.solve", m.solve_seconds, -1, model.num_variables());

  SimplexEngine engine(model, options, workspace);
  Solution sol = engine.run();
  SolveStats stats = engine.stats();
  m.solves.add();
  m.iterations.add(sol.iterations);
  if (sol.status == Status::TimeLimit) m.time_limits.add();
  if (sol.status == Status::NumericalError) m.numerical_errors.add();

  // Per-solve introspection (always collected).
  stats.rows = model.num_rows();
  stats.cols = model.num_variables();
  for (int r = 0; r < stats.rows; ++r)
    stats.nonzeros += static_cast<int>(model.row_entries(r).size());
  // Closes the span before the registry bookkeeping below, so wall_s, the
  // histogram and the ring all time the solve itself — the same value.
  stats.wall_s = span.stop();
  stats.status = sol.status;
  m.phase1_iterations.add(stats.phase1_iterations);
  m.phase2_iterations.add(stats.phase2_iterations);
  m.degenerate_pivots.add(stats.degenerate_pivots);
  m.numeric_repairs.add(stats.numeric_repairs);
  m.rows.observe(stats.rows);
  m.cols.observe(stats.cols);
  m.nonzeros.observe(stats.nonzeros);

  WorkspaceHooks::publish_stats(workspace, stats);
  return sol;
}

Solution solve(const Model& model, const Options& options) {
  Workspace workspace;
  return solve(model, options, workspace);
}

}  // namespace gc::lp
