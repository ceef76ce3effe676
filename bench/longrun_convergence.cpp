// Long-horizon convergence: Theorems 4/5 are asymptotic statements, and the
// T = 100 window of Fig. 2 is dominated by the battery-filling transient.
// This bench runs an order of magnitude longer (price-decomposition S4 for
// speed) and prints the running averages at checkpoints: the upper bound
// settles and the certified gap to the lower bound stabilizes near B/V plus
// the structural relaxation slack.
#include "common.hpp"

#include "core/lower_bound.hpp"

using namespace gc;
using namespace gc::bench;

int main() {
  const int slots = horizon(400) == 100 ? 1000 : horizon(400);
  const double V = 5.0;
  const auto cfg = sim::ScenarioConfig::paper();
  const auto model = cfg.build();

  print_title("Long-run convergence of the Theorem 4/5 bounds",
              "V = " + num(V) + ", T = " + std::to_string(slots) +
                  " slots (price-decomposition S4)");
  print_row({"T", "upper_avg", "relaxed_avg", "lower", "gap", "backlog"});
  CsvWriter csv("longrun_convergence.csv",
                {"T", "upper_avg", "relaxed_avg", "lower", "gap",
                 "backlog_packets"});

  core::LyapunovController controller(model, V, cfg.controller_options());
  core::LowerBoundSolver lb(model, V, cfg.lambda);
  Rng r1(7), r2(7);
  TimeAverage upper;
  int next_checkpoint = 25;
  for (int t = 0; t < slots; ++t) {
    upper.add(controller.step(model.sample_inputs(t, r1)).cost);
    lb.step(model.sample_inputs(t, r2));
    if (t + 1 == next_checkpoint || t + 1 == slots) {
      const double backlog = controller.state().total_data_queue_bs() +
                             controller.state().total_data_queue_users();
      print_row({num(t + 1), num(upper.average()), num(lb.average_cost()),
                 num(lb.lower_bound()),
                 num(upper.average() - lb.lower_bound()), num(backlog)});
      csv.row({static_cast<double>(t + 1), upper.average(),
               lb.average_cost(), lb.lower_bound(),
               upper.average() - lb.lower_bound(), backlog});
      next_checkpoint *= 2;
    }
  }
  std::printf("\nB/V = %s; CSV written to longrun_convergence.csv\n",
              num(model.drift_constant_B() / V).c_str());
  return 0;
}
