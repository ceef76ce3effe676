// Lower bound on psi*_P1 (Theorem 5): run the *relaxed* online problem
// P3-bar — the per-slot drift-plus-penalty minimization with the integrality
// of alpha and l dropped — to optimality each slot, time-average its energy
// cost, and subtract the B/V gap of Lemma 2.
//
// Relaxations applied (each only enlarges the feasible set, so the bound
// stays a bound; see DESIGN.md):
//  * alpha in [0,1], aggregated per link at the best common band's capacity
//    (any binary multi-band choice maps into this set with equal-or-higher
//    objective);
//  * cross-link interference (24) dropped, and with it all of E_TX (both
//    transmit and receive energy are non-negative, so removing them from
//    the demand can only lower the optimum);
//  * source selection (19) relaxed to per-base-station admissions summing
//    to at most K_s^max, which subsumes "one source at K_s^max";
//  * destination demand (18) dropped (delivery capped by link capacity
//    only);
//  * charge-XOR-discharge (9) is NOT dropped, and keeping it costs the
//    bound nothing: dropping (9) cannot lower the S4 optimum. Cancel
//    m = min(c, d) from both sides and let the freed charge source serve
//    demand instead; z(c - d) and P are unchanged and the caps only loosen
//    (docs/ALGORITHM.md "Why dropping (9) never lowers Ψ4"). So the
//    energy block runs the controller's exact price solver
//    (price_energy_manage), which honors (9), on f itself.
//
// These relaxations make the per-slot problem decompose exactly into a
// fractional-matching LP over links (the routing gain of a link is linear
// in its own alpha once each link gives all capacity to its best session),
// a closed-form admission rule, and the exact S4 energy block — a per-slot
// optimum of the relaxed problem.
//
// The relaxed system evolves its own fractional queues by the same laws
// (15)/(28)/(4), so the reported average is a genuine sample-path average
// of the relaxed policy, mirroring how the paper's Fig. 2(a) lower curve is
// produced.
#pragma once

#include <vector>

#include "core/model.hpp"
#include "core/types.hpp"
#include "util/stats.hpp"

namespace gc::core {

class LowerBoundSolver {
 public:
  // Requires V > 0 (the bound subtracts B/V) and lambda >= 0.
  LowerBoundSolver(const NetworkModel& model, double V, double lambda);

  // Solves the slot's relaxed LP, advances the fractional queues, and
  // returns f(P(t)).
  double step(const SlotInputs& inputs);

  int slots() const { return slot_; }
  double average_cost() const { return cost_avg_.average(); }
  // psi*_P3bar - B/V, the Theorem 5 lower bound estimate.
  double lower_bound() const;

  // Introspection for tests.
  double q(int node, int session) const {
    return q_[static_cast<std::size_t>(node) * model_->num_sessions() + session];
  }
  double g_queue(int tx, int rx) const {
    return g_[static_cast<std::size_t>(tx) * model_->num_nodes() + rx];
  }
  double battery_j(int node) const { return x_[node]; }

 private:
  const NetworkModel* model_;
  double v_;
  double lambda_;
  int slot_ = 0;
  std::vector<double> q_;  // N x S fractional data queues
  std::vector<double> g_;  // N x N fractional virtual queues
  std::vector<double> x_;  // battery levels
  TimeAverage cost_avg_;
};

}  // namespace gc::core
