// The online finite-queue-aware energy-cost minimization algorithm
// (Section IV): each slot, observe the random state, solve the four
// subproblems S1-S4 in sequence, apply the decision, and update the queues.
//
// Theorem 3 guarantees every queue (Q, H, z) is strongly stable under this
// controller; Theorem 4 makes its time-averaged cost an upper bound on the
// offline optimum psi*_P1.
//
// The Fig. 2(f) baselines (multi-hop w/o renewables, one-hop w/ and w/o
// renewables) are the same controller run on a NetworkModel whose
// ModelConfig disables relaying and/or renewable inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/allocator.hpp"
#include "core/energy_manager.hpp"
#include "core/model.hpp"
#include "core/router.hpp"
#include "core/scheduler.hpp"
#include "core/state.hpp"

namespace gc::core {

struct ControllerOptions {
  AllocatorParams allocator;
  enum class Scheduler { SequentialFix, Greedy } scheduler = Scheduler::SequentialFix;
  // Psi3-aware secondary scheduling pass. Required for the system to carry
  // traffic at all (the paper's S1 alone deadlocks at cold start — see
  // scheduler.hpp); exposed so bench/ablation_fill_in can demonstrate it.
  bool fill_in = true;
  // Extension (off = the paper's algorithm): charge scheduling candidates
  // V*f'(P(t-1)) for the base-station energy they would spend, closing the
  // S1<->S4 coupling the decomposition drops.
  bool energy_aware_scheduling = false;
  // Price (default) solves S4 in closed form: per-node best responses to
  // the grid price V f'(P), with the marginal nodes blended so P lands
  // where the price is consistent. It is exact on f itself and never worse
  // than the PWL LP (tests/referee/s4_referee_test.cpp). Lp is the
  // paper's CPLEX-style joint LP over a PWL of f, kept as an opt-in oracle
  // for ablations and referees (bench/ablation_energy_managers).
  enum class EnergyManager { Lp, Price } energy_manager = EnergyManager::Price;
  enum class Router { Greedy, Lp } router = Router::Greedy;
  // Watchdog budget applied to every LP solve the subproblems issue
  // (iterations and, if max_seconds > 0, wall-clock). The defaults are the
  // solver's own generous limits; long unattended runs tighten them.
  lp::Options lp;
  // Per-solve LP introspection sink (e.g. lp::JsonlSolveLog), fed by the S1
  // cluster series and the S3/S4 workspaces with contexts "s1"/"s3"/"s4".
  // Observation only — never changes decisions; nullptr = off. Must
  // outlive the controller and be thread-safe when controllers share it.
  lp::SolveStatsSink* lp_stats = nullptr;
  // S4 LP decomposition (energy_manager.hpp; docs/ALGORITHM.md "Why the S4
  // split is exact"); read only when energy_manager = Lp. Auto keeps
  // paper-scale instances on the joint LP and decomposes only at or above
  // the node threshold.
  S4Decompose s4_decompose = S4Decompose::Auto;
  int s4_decompose_min_nodes = 64;
  // Inert: nothing reads it, as no LP solver warm-starts.
  // perfbench only; ROADMAP item 1 deletes it.
  bool warm_across_slots = false;
  // Inert: nothing reads it, as every slot runs on the thread that calls
  // step(). perfbench only; ROADMAP item 1 deletes it.
  int intra_slot_threads = 1;
  // Fallback ladder (docs/ROBUSTNESS.md): when an LP-based subproblem
  // solver fails (Infeasible / IterationLimit / TimeLimit / NumericalError,
  // surfaced as gc::CheckError), retry the slot's subproblem with the
  // cheaper closed-form solver instead of aborting the run:
  //   S1 SequentialFix -> Greedy; and, for the opt-in LP solvers only,
  //   S3 Lp -> Greedy and S4 Lp -> Price.
  // Every drop bumps ctrl.fallback_s{1,3,4} and marks the decision
  // degraded. Off = the strict mode tests rely on (failures propagate).
  bool fallbacks = true;
};

class LyapunovController {
 public:
  LyapunovController(const NetworkModel& model, double V,
                     ControllerOptions options = {});

  // Inert: the controller keeps no LP state across slots, so there is
  // nothing to carry or restore.
  // perfbench only; ROADMAP item 1 deletes both.
  struct WarmCarry {
    std::vector<std::uint8_t> s1_states;
    std::vector<std::uint64_t> s1_keys;
    std::vector<std::uint8_t> s4_states;
  };
  void restore_warm_carry(const WarmCarry& /*carry*/) {}

  const NetworkState& state() const { return state_; }
  // Mutable access for checkpoint restore and for the simulator's
  // sanitization switch; the online algorithm itself never uses it.
  NetworkState& mutable_state() { return state_; }
  double V() const { return state_.V(); }
  const ControllerOptions& options() const { return options_; }
  // P(t-1), the grid draw the energy-aware scheduling extension prices
  // against; exposed for checkpointing.
  double last_grid_j() const { return last_grid_j_; }
  void set_last_grid_j(double j) { last_grid_j_ = j; }

  // Runs one slot: solves S2 (admission), S1 (scheduling + power control),
  // S3 (routing) and S4 (energy management), advances all queue laws, and
  // returns the applied decision.
  SlotDecision step(const SlotInputs& inputs);

 private:
  const NetworkModel* model_;
  ControllerOptions options_;
  NetworkState state_;
  double last_grid_j_ = 0.0;  // P(t-1), for energy-aware scheduling
  // Reusable LP solver buffers for the opt-in LP solvers, one workspace per
  // subproblem so each solves a single model family. Purely
  // solver-internal. (S1's SF series solve through per-cluster
  // workspaces; see scheduler.hpp.)
  lp::Workspace lp_ws_s3_, lp_ws_s4_;
};

}  // namespace gc::core
