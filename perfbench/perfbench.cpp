// perfbench: runs one benchmark workload in this process and prints
// one JSON document of raw measurements as its last stdout line. run.py
// builds this binary, starts it in fresh processes, and turns their
// documents into the benchmark's metrics (README.md explains both).
//
//   --mode plain   one timed setup (scenario load -> controller ready),
//                  then one pass of the closed-loop horizon through
//                  LyapunovController::step with every slot timed. The
//                  peak resident set is read when the pass ends, while the
//                  process holds a single model. Then the horizon
//                  checkpoint and R timed restarts from it (model build,
//                  load_checkpoint, restore_checkpoint), each checked
//                  against the live run.
//   --mode traced  one setup, then the same horizon driven from outside
//                  through the public calls LyapunovController::step makes,
//                  in its order, on a copy of NetworkState, with a span
//                  around every call; validate_decision and the auditor
//                  bounds every slot; then the checkpoint calls and one
//                  restart, also spanned. Spans are kept in memory and
//                  written to --spans when the run ends.
//
// Spans are only ever placed around calls into the library; nothing inside
// the library is instrumented for this benchmark.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/controller.hpp"
#include "core/energy_manager.hpp"
#include "core/psi.hpp"
#include "core/router.hpp"
#include "core/scheduler.hpp"
#include "core/validate.hpp"
#include "lp/simplex.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/stability.hpp"
#include "scenario/spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/mobility.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace core = gc::core;
namespace sim = gc::sim;
using Clock = std::chrono::steady_clock;

// Drift-plus-penalty weight of every workload: the paper's Fig. 2 setting,
// as bench/scale_scenarios runs it.
constexpr double kV = 3.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string scenario;
  std::string mode = "plain";
  std::uint64_t seed = 1;
  int slots = 10;
  int restarts = 1;
  bool link_prune = false;
  bool warm = false;
  int threads = 1;
  double mobility_mps = 0.0;
  std::string work_dir = ".";
  std::string spans_path;
};

void usage_error(const std::string& msg) {
  throw gc::CheckError("usage: " + msg);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--link-prune") {
      a.link_prune = true;
      continue;
    }
    if (flag == "--warm") {
      a.warm = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--scenario") a.scenario = v;
    else if (flag == "--mode") a.mode = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--slots") a.slots = std::stoi(v);
    else if (flag == "--restarts") a.restarts = std::stoi(v);
    else if (flag == "--threads") a.threads = std::stoi(v);
    else if (flag == "--mobility-mps") a.mobility_mps = std::stod(v);
    else if (flag == "--work-dir") a.work_dir = v;
    else if (flag == "--spans") a.spans_path = v;
    else usage_error("unknown flag " + flag);
  }
  if (a.scenario.empty()) usage_error("--scenario is required");
  if (a.mode != "plain" && a.mode != "traced")
    usage_error("--mode must be plain or traced");
  if (a.slots < 1 || a.threads < 1 || a.restarts < 0)
    usage_error("--slots/--threads >= 1, --restarts >= 0");
  if (a.mode == "traced" && a.spans_path.empty())
    usage_error("--mode traced needs --spans");
  return a;
}

// ---- Spans -----------------------------------------------------------------

// In-memory span log: name, start, end, parent span and the slot as the
// shared id (-1 outside the slot loop), plus per-span counts. Written out
// once, when the run ends.
class Tracer {
 public:
  struct Record {
    const char* name;
    int parent;
    int slot;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::vector<std::pair<const char*, double>> counts;
  };

  Tracer() : epoch_(Clock::now()) {}

  int open(const char* name, int slot) {
    const int id = static_cast<int>(records_.size());
    records_.push_back(
        {name, stack_.empty() ? -1 : stack_.back(), slot, now_ns(), -1, {}});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    records_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  void count(int id, const char* key, double value) {
    records_[static_cast<std::size_t>(id)].counts.emplace_back(key, value);
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    GC_CHECK_MSG(out.good(), "cannot open span file " << path);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "{\"id\":" << i << ",\"parent\":" << r.parent
          << ",\"slot\":" << r.slot << ",\"name\":\"" << r.name
          << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
          << ",\"counts\":{";
      for (std::size_t k = 0; k < r.counts.size(); ++k)
        out << (k ? "," : "") << '"' << r.counts[k].first
            << "\":" << r.counts[k].second;
      out << "}}\n";
    }
    GC_CHECK_MSG(out.good(), "cannot write span file " << path);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

// RAII span; a null tracer records nothing (the untraced setup path).
class Span {
 public:
  Span(Tracer* tracer, const char* name, int slot = -1)
      : tracer_(tracer), id_(tracer ? tracer->open(name, slot) : -1) {}
  ~Span() {
    if (tracer_) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void count(const char* key, double value) {
    if (tracer_) tracer_->count(id_, key, value);
  }

 private:
  Tracer* tracer_;
  int id_;
};

// ---- LP statistics ---------------------------------------------------------

// Tallies the S1 and S4 solves (workspace contexts "s1" and "s4").
class LpTally final : public gc::lp::SolveStatsSink {
 public:
  struct Counts {
    double solves = 0, iterations = 0, wall_s = 0;
    double warm_cols = 0, warm_reused = 0;  // solves that carried a hint
  };
  void on_solve(const gc::lp::SolveStats& s, const char* context) override {
    std::lock_guard<std::mutex> lock(mu_);
    Counts& c = by_context(context);
    c.solves += 1;
    c.iterations += s.phase1_iterations + s.phase2_iterations;
    c.wall_s += s.wall_s;
    if (s.warm_attempted) {
      c.warm_cols += s.cols;
      c.warm_reused += s.warm_vars_reused;
    }
  }
  Counts get(const std::string& context) {
    std::lock_guard<std::mutex> lock(mu_);
    return by_context(context.c_str());
  }

 private:
  Counts& by_context(const char* context) {
    return std::string(context) == "s4" ? s4_ : s1_;
  }
  std::mutex mu_;
  Counts s1_, s4_;
};

// ---- Setup -----------------------------------------------------------------

struct Instance {
  gc::scenario::ScenarioSpec spec;
  std::unique_ptr<core::NetworkModel> model;
  std::unique_ptr<core::LyapunovController> controller;
  std::unique_ptr<sim::RandomWaypoint> walker;  // mobile workloads only
  std::unique_ptr<gc::Rng> input_rng;
  sim::MobilityConfig mobility;
  double setup_s = 0.0;
};

core::ControllerOptions controller_options(const Args& a,
                                           const sim::ScenarioConfig& config) {
  core::ControllerOptions o = config.controller_options();
  o.warm_across_slots = a.warm;
  o.intra_slot_threads = a.threads;
  return o;
}

// Scenario load -> model build -> first prune-map build -> controller
// construction: the time to first slot.
Instance setup(const Args& a, Tracer* tracer) {
  const auto t0 = Clock::now();
  Instance in;
  Span total(tracer, "setup");
  {
    Span s(tracer, "scenario.load");
    in.spec = gc::scenario::load_scenario_file(a.scenario);
  }
  sim::ScenarioConfig config = in.spec.config;
  config.link_prune = a.link_prune;
  {
    Span s(tracer, "model.build");
    in.model = std::make_unique<core::NetworkModel>(config.build());
  }
  {
    Span s(tracer, "net.prune_build");
    in.model->pruned_links();
  }
  {
    Span s(tracer, "ctrl.init");
    in.controller = std::make_unique<core::LyapunovController>(
        *in.model, kV, controller_options(a, config));
    // What run_simulation does for a run without --validate.
    in.controller->mutable_state().set_sanitize(true);
  }
  {
    Span s(tracer, "sim.inputs_init");
    in.input_rng = std::make_unique<gc::Rng>(a.seed);
    if (a.mobility_mps > 0.0) {
      in.mobility.speed_mps_lo = 0.0;
      in.mobility.speed_mps_hi = a.mobility_mps;
      in.mobility.area_m = config.area_m;
      // Same walker seed as sim::run_simulation_mobile.
      in.walker = std::make_unique<sim::RandomWaypoint>(
          in.mobility, in.model->topology(), a.seed + 77);
    }
  }
  in.setup_s = seconds_since(t0);
  return in;
}

// The Metrics bookkeeping run_simulation does after every slot, so the
// checkpoint carries what a real run's would.
void record(sim::Metrics& m, const core::NetworkModel& model,
            const core::NetworkState& state, const core::SlotInputs& inputs,
            const core::SlotDecision& d) {
  m.cost.push_back(d.cost);
  m.grid_j.push_back(d.grid_total_j);
  m.q_bs.push_back(state.total_data_queue_bs());
  m.q_users.push_back(state.total_data_queue_users());
  m.battery_bs_j.push_back(state.total_battery_bs_j());
  m.battery_users_j.push_back(state.total_battery_users_j());
  m.cost_avg.add(d.cost);
  m.q_total_stability.add(m.q_bs.back() + m.q_users.back());
  m.h_total_stability.add(state.total_virtual_queue());
  for (double s : d.demand_shortfall) m.total_demand_shortfall += s;
  m.total_unserved_energy_j += d.unserved_energy_j;
  for (const auto& e : d.energy) m.total_curtailed_j += e.curtailed_j;
  for (const auto& r : d.routes)
    if (r.rx == model.session(r.session).destination)
      m.total_delivered_packets += r.packets;
  for (const auto& ad : d.admissions) m.total_admitted_packets += ad.packets;
  for (int s = 0; s < model.num_sessions(); ++s)
    m.total_offered_packets += model.demand_packets(s, inputs);
  ++m.slots;
}

// Everything the slot loop produced that run.py reads.
struct LoopResult {
  sim::Metrics metrics;
  std::vector<double> slot_s;
  int degraded = 0;
  int failed = 0;  // degraded, or failed validation / auditor bounds
  std::int64_t validate_violations = 0;
  std::int64_t audit_violations = 0;
};

// Closed loop through LyapunovController::step, as run_simulation does.
LoopResult run_plain(Instance& in, int slots) {
  LoopResult r;
  r.slot_s.reserve(static_cast<std::size_t>(slots));
  core::NetworkModel& model = *in.model;
  for (int t = 0; t < slots; ++t) {
    const auto t0 = Clock::now();
    if (in.walker && t > 0)
      in.walker->advance(model.slot_seconds(), model.mutable_topology());
    const core::SlotInputs inputs = model.sample_inputs(t, *in.input_rng);
    const core::SlotDecision d = in.controller->step(inputs);
    record(r.metrics, model, in.controller->state(), inputs, d);
    if (d.degraded) ++r.degraded;
    r.slot_s.push_back(seconds_since(t0));
  }
  r.failed = r.degraded;
  return r;
}

// ---- Traced step -----------------------------------------------------------

// Worker pool with worker-private obs registries, so instruments bumped by
// cluster jobs never race with this thread's (the same arrangement the
// controller makes for its own pool).
struct WorkerPool {
  std::vector<std::unique_ptr<gc::obs::Registry>> registries;
  std::vector<std::unique_ptr<gc::obs::ThreadRegistryScope>> scopes;
  gc::util::ThreadPool pool;

  explicit WorkerPool(int threads)
      : registries(make_registries(threads)),
        scopes(registries.size()),
        pool(pool_options(threads)) {}

  static std::vector<std::unique_ptr<gc::obs::Registry>> make_registries(
      int threads) {
    std::vector<std::unique_ptr<gc::obs::Registry>> out;
    const int n = gc::util::ThreadPool::resolve_num_threads(threads);
    for (int w = 0; w < n; ++w)
      out.push_back(std::make_unique<gc::obs::Registry>());
    return out;
  }
  gc::util::ThreadPool::Options pool_options(int threads) {
    gc::util::ThreadPool::Options o;
    o.num_threads = threads;
    o.on_thread_start = [this](int w) {
      scopes[static_cast<std::size_t>(w)] =
          std::make_unique<gc::obs::ThreadRegistryScope>(
              registries[static_cast<std::size_t>(w)].get());
    };
    o.on_thread_stop = [this](int w) {
      scopes[static_cast<std::size_t>(w)].reset();
    };
    return o;
  }
};

// LyapunovController::step taken apart: the same public calls, in the same
// order, with the same solver choices and fallback ladder, each inside its
// own span. Its own LP workspaces carry the LpTally sink.
class LayerStepper {
 public:
  LayerStepper(const core::NetworkModel& model, core::ControllerOptions opt,
               LpTally* tally)
      : model_(model), opt_(std::move(opt)), tally_(tally) {
    ws_s1_.set_stats_context("s1");
    ws_s4_.set_stats_context("s4");
    ws_s1_.set_stats_sink(tally_);
    ws_s4_.set_stats_sink(tally_);
    if (opt_.intra_slot_threads != 1)
      pool_ = std::make_unique<WorkerPool>(opt_.intra_slot_threads);
  }

  core::SlotDecision step(core::NetworkState& state,
                          const core::SlotInputs& inputs, Tracer& tr) {
    using Opt = core::ControllerOptions;
    const int t = state.slot();
    tally_->begin_slot(t);
    core::SlotDecision d;
    Span step_span(&tr, "ctrl.step", t);
    {
      Span s(&tr, "s2.admit", t);
      d.admissions = core::allocate_resources(state, opt_.allocator, &inputs);
    }
    const double energy_price =
        opt_.energy_aware_scheduling
            ? state.V() * model_.cost_at(t)
                              .scaled(inputs.cost_multiplier)
                              .derivative(last_grid_j_)
            : 0.0;
    {
      Span s(&tr, "s1.sf", t);
      const LpTally::Counts before = tally_->get("s1");
      if (opt_.scheduler == Opt::Scheduler::SequentialFix) {
        const auto run_sf = [&] {
          if (pool_ != nullptr)
            return core::sequential_fix_schedule_clustered(
                state, inputs, pool_->pool, opt_.fill_in, energy_price,
                opt_.lp, tally_);
          return core::sequential_fix_schedule(
              state, inputs, opt_.fill_in, energy_price, opt_.lp, &ws_s1_,
              opt_.warm_across_slots ? &s1_warm_keys_ : nullptr);
        };
        if (opt_.fallbacks) {
          try {
            d.schedule = run_sf();
          } catch (const gc::CheckError&) {
            ++d.fallbacks;
            d.schedule = core::greedy_schedule(state, inputs, opt_.fill_in,
                                               energy_price);
          }
        } else {
          d.schedule = run_sf();
        }
      } else {
        d.schedule =
            core::greedy_schedule(state, inputs, opt_.fill_in, energy_price);
      }
      const LpTally::Counts after = tally_->get("s1");
      sf_schedule_ = d.schedule;
      s.count("links", static_cast<double>(d.schedule.size()));
      s.count("lp_solves", after.solves - before.solves);
      s.count("lp_iterations", after.iterations - before.iterations);
      s.count("warm_cols", after.warm_cols - before.warm_cols);
      s.count("warm_reused", after.warm_reused - before.warm_reused);
    }
    {
      Span s(&tr, "s1.power", t);
      const std::size_t scheduled = d.schedule.size();
      core::assign_powers(model_, inputs, d.schedule);
      s.count("scheduled", static_cast<double>(scheduled));
      s.count("kept", static_cast<double>(d.schedule.size()));
    }
    {
      Span s(&tr, "s3.route", t);
      const std::vector<double>* demand =
          inputs.session_demand_packets.empty()
              ? nullptr
              : &inputs.session_demand_packets;
      core::RoutingResult routing;
      if (opt_.router == Opt::Router::Lp) {
        try {
          routing = core::lp_route(state, d.schedule, d.admissions, opt_.lp,
                                   &ws_s3_, demand);
        } catch (const gc::CheckError&) {
          if (!opt_.fallbacks) throw;
          ++d.fallbacks;
          routing = core::greedy_route(state, d.schedule, d.admissions, demand);
        }
      } else {
        routing = core::greedy_route(state, d.schedule, d.admissions, demand);
      }
      d.routes = std::move(routing.routes);
      d.demand_shortfall = std::move(routing.demand_shortfall);
      s.count("routes", static_cast<double>(d.routes.size()));
    }
    {
      Span s(&tr, "s4.energy", t);
      const LpTally::Counts before = tally_->get("s4");
      std::vector<double> demands =
          core::compute_energy_demands(model_, d.schedule);
      if (inputs.any_node_inactive() || !inputs.policy_demand_j.empty())
        for (std::size_t i = 0; i < demands.size(); ++i) {
          const int node = static_cast<int>(i);
          if (inputs.node_is_down(node))
            demands[i] = 0.0;
          else if (inputs.node_is_asleep(node))
            demands[i] = inputs.policy_demand(node);
          else
            demands[i] += inputs.policy_demand(node);
        }
      core::EnergyLpOptions eopt;
      eopt.decompose = opt_.s4_decompose;
      eopt.decompose_min_nodes = opt_.s4_decompose_min_nodes;
      eopt.warm_across_slots = opt_.warm_across_slots;
      eopt.pool = pool_ != nullptr ? &pool_->pool : nullptr;
      core::EnergyResult energy;
      if (opt_.energy_manager == Opt::EnergyManager::Lp) {
        try {
          energy = core::lp_energy_manage(state, inputs, demands, eopt,
                                          opt_.lp, &ws_s4_);
        } catch (const gc::CheckError&) {
          if (!opt_.fallbacks) throw;
          ++d.fallbacks;
          energy = core::price_energy_manage(state, inputs, demands);
        }
      } else {
        energy = core::price_energy_manage(state, inputs, demands);
      }
      d.energy = std::move(energy.decisions);
      d.grid_total_j = energy.grid_total_j;
      d.cost = energy.cost;
      d.unserved_energy_j = energy.unserved_total_j;
      last_grid_j_ = energy.grid_total_j;
      const LpTally::Counts after = tally_->get("s4");
      s.count("lp_solves", after.solves - before.solves);
      s.count("lp_iterations", after.iterations - before.iterations);
      s.count("lp_wall_s", after.wall_s - before.wall_s);
      s.count("warm_cols", after.warm_cols - before.warm_cols);
      s.count("warm_reused", after.warm_reused - before.warm_reused);
    }
    d.degraded = d.fallbacks > 0;
    {
      Span s(&tr, "state.advance", t);
      state.advance(d);
    }
    return d;
  }

  // The cross-slot carry in the shape LyapunovController checkpoints it.
  core::LyapunovController::WarmCarry warm_carry() const {
    core::LyapunovController::WarmCarry c;
    if (!opt_.warm_across_slots) return c;
    c.s1_states = ws_s1_.export_recorded_states();
    c.s1_keys = s1_warm_keys_;
    c.s4_states = ws_s4_.export_recorded_states();
    return c;
  }
  double last_grid_j() const { return last_grid_j_; }
  // The last slot's schedule as SF returned it, before power control.
  const std::vector<core::ScheduledLink>& sf_schedule() const {
    return sf_schedule_;
  }

 private:
  const core::NetworkModel& model_;
  core::ControllerOptions opt_;
  LpTally* tally_;
  gc::lp::Workspace ws_s1_, ws_s3_, ws_s4_;
  std::vector<std::uint64_t> s1_warm_keys_;
  double last_grid_j_ = 0.0;
  std::vector<core::ScheduledLink> sf_schedule_;
  std::unique_ptr<WorkerPool> pool_;
};

// The auditor's per-slot bound checks plus the Lemma-1 drift bound at the
// pre-decision state, as run_simulation does under --validate. Returns the
// number of violations.
class SlotChecker {
 public:
  SlotChecker(const core::NetworkModel& model, double V, double lambda)
      : model_(model), lambda_(lambda), auditor_(config(model, V, lambda)) {
    q_.resize(static_cast<std::size_t>(model.num_nodes()) *
              static_cast<std::size_t>(model.num_sessions()));
    z_.resize(static_cast<std::size_t>(model.num_nodes()));
  }

  std::int64_t audit(const core::NetworkState& pre,
                     const core::NetworkState& post,
                     const core::SlotDecision& d) {
    const int S = model_.num_sessions();
    for (int i = 0; i < model_.num_nodes(); ++i) {
      for (int s = 0; s < S; ++s)
        q_[static_cast<std::size_t>(i * S + s)] = post.q(i, s);
      z_[static_cast<std::size_t>(i)] = post.z(i);
    }
    gc::obs::SlotAudit a;
    a.slot = pre.slot();
    a.q = &q_;
    a.z = &z_;
    a.lyapunov = core::lyapunov(post);
    a.cost = d.cost;
    for (const auto& ad : d.admissions) a.admitted_packets += ad.packets;
    a.total_backlog = post.total_data_queue_bs() + post.total_data_queue_users();
    a.pre_lyapunov = core::lyapunov(pre);
    a.drift_bound_rhs = model_.drift_constant_B() +
                        core::psi1_hat(pre, d.schedule) +
                        core::psi2_hat(pre, lambda_, d.admissions) +
                        core::psi3_hat(pre, d.routes) +
                        core::psi4_hat(pre, d.energy);
    const gc::obs::SlotVerdict v = auditor_.observe(a);
    return v.q_violations + v.z_violations + v.drift_violations;
  }

 private:
  static gc::obs::AuditConfig config(const core::NetworkModel& model,
                                     double V, double lambda) {
    gc::obs::AuditConfig c = sim::make_audit_config(model, V, lambda);
    c.window_slots = 0;  // bounds only; horizons are too short for windows
    return c;
  }
  const core::NetworkModel& model_;
  double lambda_;
  gc::obs::StabilityAuditor auditor_;
  std::vector<double> q_, z_;
};

LoopResult run_traced(Instance& in, int slots, Tracer& tr, LpTally& tally) {
  LoopResult r;
  core::NetworkModel& model = *in.model;
  const core::ControllerOptions& opt = in.controller->options();
  LayerStepper stepper(model, opt, &tally);
  SlotChecker checker(model, in.controller->V(), opt.allocator.lambda);
  core::NetworkState state = in.controller->state();
  for (int t = 0; t < slots; ++t) {
    Span slot_span(&tr, "slot", t);
    {
      // Spanned on static workloads too, where the step does nothing.
      Span s(&tr, "net.mobility", t);
      if (in.walker && t > 0)
        in.walker->advance(model.slot_seconds(), model.mutable_topology());
    }
    {
      // A no-op on a static topology; after mobility it rebuilds the map
      // S1 would otherwise rebuild on first use.
      Span s(&tr, "net.prune_rebuild", t);
      model.pruned_links();
    }
    core::SlotInputs inputs;
    {
      Span s(&tr, "sim.sample", t);
      inputs = model.sample_inputs(t, *in.input_rng);
    }
    std::optional<core::NetworkState> pre;
    {
      Span s(&tr, "check.copy", t);
      pre.emplace(state);
    }
    const core::SlotDecision d = stepper.step(state, inputs, tr);
    bool failed = d.degraded;
    if (d.degraded) ++r.degraded;
    {
      // Off the slot path: S1's candidate builders called on their own, at
      // the slot's pre-decision state.
      Span s(&tr, "probe.candidates", t);
      s.count("candidates",
              static_cast<double>(core::build_candidates(*pre, inputs).size()));
    }
    {
      // One fill-in scan given the links SF scheduled.
      Span s(&tr, "probe.fill_in_scan", t);
      s.count("candidates", static_cast<double>(
                                core::build_fill_in_candidates(
                                    *pre, inputs, stepper.sf_schedule())
                                    .size()));
    }
    {
      Span s(&tr, "check.validate", t);
      const auto violations = core::validate_decision(*pre, inputs, d);
      r.validate_violations += static_cast<std::int64_t>(violations.size());
      for (const auto& v : violations)
        std::fprintf(stderr, "slot %d: %s\n", t, v.c_str());
      failed = failed || !violations.empty();
    }
    {
      Span s(&tr, "check.audit", t);
      const std::int64_t n = checker.audit(*pre, state, d);
      r.audit_violations += n;
      failed = failed || n > 0;
    }
    {
      Span s(&tr, "sim.record", t);
      record(r.metrics, model, state, inputs, d);
    }
    if (failed) ++r.failed;
  }
  // Hand the stepped state to the controller so the checkpoint calls see
  // what LyapunovController::step would have left behind.
  in.controller->mutable_state() = state;
  in.controller->set_last_grid_j(stepper.last_grid_j());
  in.controller->restore_warm_carry(stepper.warm_carry());
  return r;
}

// ---- Checkpoint and restart ------------------------------------------------

struct RestartResult {
  double restart_s = 0.0;
  bool state_equal = false;
};

bool same_state(const core::NetworkState& a, const core::NetworkState& b) {
  const core::NetworkModel& m = a.model();
  if (a.slot() != b.slot()) return false;
  for (int i = 0; i < m.num_nodes(); ++i) {
    for (int s = 0; s < m.num_sessions(); ++s)
      if (a.q(i, s) != b.q(i, s)) return false;
    for (int j = 0; j < m.num_nodes(); ++j)
      if (a.g_queue(i, j) != b.g_queue(i, j)) return false;
    if (a.battery_j(i) != b.battery_j(i)) return false;
  }
  return true;
}

// A supervised restart: model build, load_checkpoint, restore_checkpoint,
// ending when the controller is ready to step. Checks the restored state
// against the live one.
RestartResult restart(const Args& a, const Instance& live,
                      const std::string& path, Tracer* tracer) {
  const auto t0 = Clock::now();
  Span total(tracer, "restart");
  std::unique_ptr<core::NetworkModel> model;
  std::unique_ptr<core::LyapunovController> controller;
  {
    Span s(tracer, "model.build");
    sim::ScenarioConfig config = live.spec.config;
    config.link_prune = a.link_prune;
    model = std::make_unique<core::NetworkModel>(config.build());
    model->pruned_links();
    controller = std::make_unique<core::LyapunovController>(
        *model, kV, controller_options(a, config));
    controller->mutable_state().set_sanitize(true);
  }
  std::optional<sim::Checkpoint> ck;
  {
    Span s(tracer, "ckpt.load");
    ck.emplace(sim::load_checkpoint(path));
  }
  gc::Rng rng(a.seed);
  sim::Metrics metrics;
  std::unique_ptr<sim::RandomWaypoint> walker;
  {
    Span s(tracer, "ckpt.restore");
    if (ck->has_mobility)
      walker = std::make_unique<sim::RandomWaypoint>(
          live.mobility, model->topology(), a.seed + 77);
    sim::restore_checkpoint(*ck, rng, *controller, metrics, walker.get(),
                            walker ? &model->mutable_topology() : nullptr);
  }
  RestartResult r;
  r.restart_s = seconds_since(t0);
  r.state_equal = same_state(controller->state(), live.controller->state()) &&
                  metrics.cost == ck->metrics.cost &&
                  controller->last_grid_j() == live.controller->last_grid_j();
  return r;
}

// ---- Output ----------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ',';
    s += num(v[i]);
  }
  return s + "]";
}

std::vector<double> backlog_series(const sim::Metrics& m) {
  std::vector<double> b(m.q_bs.size());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = m.q_bs[i] + m.q_users[i];
  return b;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string env_json(const Args& a) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  std::string s = "{\"nproc\":" + std::to_string(online_cpus());
  s += ",\"llc_bytes\":" + std::to_string(llc > 0 ? llc : 0);
  s += ",\"compiler\":\"" + gc::obs::json_escape(__VERSION__) + "\"";
  s += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
  s += std::string(",\"gc_obs_disable\":") +
       (gc::obs::kCompiledIn ? "false" : "true");
  s += ",\"intra_slot_threads\":" + std::to_string(a.threads) + "}";
  return s;
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return std::string(PERFBENCH_BUILD_TYPE) != "Debug";
#else
  return false;
#endif
}

double peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

int run(const Args& a) {
  std::filesystem::create_directories(a.work_dir);
  const std::string ckpt_path =
      (std::filesystem::path(a.work_dir) / "horizon.ckpt").string();
  std::string out = "{\"mode\":\"" + a.mode + "\",\"env\":" + env_json(a);

  std::unique_ptr<Tracer> tracer;
  if (a.mode == "traced") tracer = std::make_unique<Tracer>();
  Tracer* tr = tracer.get();
  LpTally tally;

  Instance live = setup(a, tr);
  const LoopResult loop = tracer ? run_traced(live, a.slots, *tracer, tally)
                                 : run_plain(live, a.slots);
  // Until here the process has held one model: setup and closed loop.
  const double peak_kb = peak_rss_kb();
  {
    std::optional<sim::Checkpoint> c;
    {
      Span s(tr, "ckpt.make");
      c.emplace(sim::make_checkpoint(
          a.slots, *live.input_rng, *live.controller, loop.metrics,
          live.walker.get(),
          live.walker ? &live.model->topology() : nullptr));
    }
    Span s(tr, "ckpt.save");
    sim::save_checkpoint(*c, ckpt_path);
  }
  // Each restart builds its model beside the live run and frees it
  // before the next.
  std::vector<double> restart_s;
  bool restore_ok = true;
  for (int k = 0; k < a.restarts; ++k) {
    const RestartResult r = restart(a, live, ckpt_path, tr);
    restart_s.push_back(r.restart_s);
    restore_ok = restore_ok && r.state_equal;
  }
  if (tracer) tracer->write(a.spans_path);

  const sim::Metrics& m = loop.metrics;
  out += ",\"nodes\":" + std::to_string(live.model->num_nodes());
  out += ",\"sessions\":" + std::to_string(live.model->num_sessions());
  out += ",\"setup_s\":" + num(live.setup_s);
  out += ",\"slot_s\":" + list(loop.slot_s);
  out += ",\"cost\":" + list(m.cost);
  out += ",\"backlog\":" + list(backlog_series(m));
  out += ",\"delivered_packets\":" + num(m.total_delivered_packets);
  out += ",\"offered_packets\":" + num(m.total_offered_packets);
  out += ",\"slots\":" + std::to_string(m.slots);
  out += ",\"degraded_slots\":" + std::to_string(loop.degraded);
  out += ",\"failed_slots\":" + std::to_string(loop.failed);
  out += ",\"validate_violations\":" + std::to_string(loop.validate_violations);
  out += ",\"audit_violations\":" + std::to_string(loop.audit_violations);
  out += std::string(",\"restore_ok\":") + (restore_ok ? "true" : "false");
  out += ",\"restart_s\":" + list(restart_s);
  out += ",\"checkpoint_bytes\":" +
         std::to_string(std::filesystem::file_size(ckpt_path));
  out += ",\"peak_rss_kb\":" + num(peak_kb);
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (!optimized_build()) {
      std::fprintf(stderr,
                   "error: perfbench is a %s build; timings from an "
                   "unoptimized build are refused\n",
                   PERFBENCH_BUILD_TYPE);
      return 3;
    }
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
