// Fig. 2(a): upper and lower bounds on psi*_P1 versus V.
//
// Upper bound  = time-averaged energy cost achieved by the online algorithm
//                (Theorem 4: psi*_P1 <= psi_P3).
// Lower bound  = time-averaged cost of the relaxed per-slot LP P3-bar minus
//                the Lemma 2 gap B/V (Theorem 5).
//
// The paper sweeps V in [1e5, 1e6] in its unit system; with our joule/
// second units the equivalent Lyapunov tradeoff happens for V of order
// 1..10 (see EXPERIMENTS.md for the unit mapping). Expected shape: the two
// curves approach each other as V grows.
#include "common.hpp"

#include "core/lower_bound.hpp"

using namespace gc;
using namespace gc::bench;

int main() {
  const int slots = horizon(40);
  const auto cfg = sim::ScenarioConfig::paper();

  print_title("Fig. 2(a) — time-averaged expected energy cost vs V",
              "upper = proposed online algorithm (psi_P3); lower = "
              "psi*_P3bar - B/V; T = " + std::to_string(slots) + " slots.\n"
              "upper_tail averages the second half of the horizon only — "
              "it strips the battery-filling\ntransient (whose target level "
              "scales with V) and shows the steady-state cost/V tradeoff.");
  print_row({"V", "upper", "upper_tail", "relaxed_avg", "B/V", "lower",
             "gap"});

  CsvWriter csv("fig2a_bounds.csv", {"V", "upper", "upper_tail",
                                     "relaxed_avg", "B_over_V", "lower",
                                     "gap"});

  // Each V runs both the online controller and the relaxed lower-bound
  // solver over its own sample path (Metrics does not carry the
  // lower-bound series, so this loop drives the controller itself).
  for (const double V : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0}) {
    const auto model = cfg.build();
    core::LyapunovController controller(model, V, cfg.controller_options());
    core::LowerBoundSolver lb(model, V, cfg.lambda);
    Rng r1(7), r2(7);
    TimeAverage upper, upper_tail;
    for (int t = 0; t < slots; ++t) {
      const double c = controller.step(model.sample_inputs(t, r1)).cost;
      upper.add(c);
      if (t >= slots / 2) upper_tail.add(c);
      lb.step(model.sample_inputs(t, r2));
    }
    const double lower = lb.lower_bound();
    const double b_over_v = model.drift_constant_B() / V;
    print_row({num(V), num(upper.average()), num(upper_tail.average()),
               num(lb.average_cost()), num(b_over_v), num(lower),
               num(upper.average() - lower)});
    csv.row({V, upper.average(), upper_tail.average(), lb.average_cost(),
             b_over_v, lower, upper.average() - lower});
  }
  std::printf("\nCSV written to fig2a_bounds.csv\n");
  return 0;
}
