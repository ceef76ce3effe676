// Ablation: the admission coefficient lambda ("determined by the system
// operator", Section IV). lambda*V is the source-backlog threshold below
// which a session admits K_max packets, so lambda trades throughput
// against backlog and energy cost.
#include "common.hpp"

using namespace gc;
using namespace gc::bench;

int main() {
  const int slots = horizon(60);
  const double V = 3.0;

  print_title("Ablation — admission coefficient lambda",
              "V = " + num(V) + ", T = " + std::to_string(slots) + " slots");
  print_row({"lambda", "avg_cost", "delivered", "admitted", "final_backlog"});
  CsvWriter csv("ablation_lambda.csv",
                {"lambda", "avg_cost", "delivered_packets", "admitted_packets",
                 "final_backlog_packets"});

  // One independent run per lambda — fanned out through the sweep engine.
  const std::vector<double> lambdas = {1.0,  2.0,  5.0, 10.0,
                                       20.0, 40.0, 80.0};
  std::vector<sim::SimJob> jobs;
  for (double lambda : lambdas) {
    sim::SimJob job;
    job.scenario = sim::ScenarioConfig::paper();
    job.scenario.lambda = lambda;
    job.V = V;
    job.slots = slots;
    jobs.push_back(job);
  }
  const std::vector<sim::Metrics> runs = run_sweep(jobs);

  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    const double lambda = lambdas[i];
    const sim::Metrics& m = runs[i];
    const double backlog = m.q_bs.back() + m.q_users.back();
    print_row({num(lambda), num(m.cost_avg.average()),
               num(m.total_delivered_packets), num(m.total_admitted_packets),
               num(backlog)});
    csv.row({lambda, m.cost_avg.average(), m.total_delivered_packets,
             m.total_admitted_packets, backlog});
  }
  std::printf("\nCSV written to ablation_lambda.csv\n");
  return 0;
}
