// Fig. 2(b) and 2(c): total data-queue backlog of base stations (b) and
// mobile users (c) over time, for V in {1..5} (the paper's {1..5} x 1e5 in
// its units).
//
// Expected shape: every curve grows from zero, flattens (bounded — strong
// stability, Theorem 3), and larger V sits higher (the admission threshold
// lambda*V and the drift weighting both scale with V).
#include "common.hpp"

using namespace gc;
using namespace gc::bench;

int main() {
  const int slots = horizon(100);
  const auto cfg = sim::ScenarioConfig::paper();
  const std::vector<double> vs = {1.0, 2.0, 3.0, 4.0, 5.0};

  // One independent run per V, fanned out through the sweep engine.
  std::vector<sim::SimJob> jobs;
  for (double v : vs) {
    sim::SimJob job;
    job.scenario = cfg;
    job.V = v;
    job.slots = slots;
    jobs.push_back(job);
  }
  const std::vector<sim::Metrics> runs = run_sweep(jobs);

  for (const bool users : {false, true}) {
    print_title(users ? "Fig. 2(c) — total user data-queue backlog (packets)"
                      : "Fig. 2(b) — total BS data-queue backlog (packets)",
                "rows = time slots (minutes), columns = V");
    std::vector<std::string> head = {"t"};
    for (double v : vs) head.push_back("V=" + num(v));
    print_row(head);
    const int stride = std::max(slots / 20, 1);
    for (int t = 0; t < slots; t += stride) {
      std::vector<std::string> row = {num(t + 1)};
      for (const auto& m : runs)
        row.push_back(num(users ? m.q_users[t] : m.q_bs[t]));
      print_row(row);
    }
  }

  CsvWriter csv("fig2bc_data_queues.csv",
                {"t", "V", "q_bs_packets", "q_users_packets"});
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (int t = 0; t < slots; ++t)
      csv.row({static_cast<double>(t + 1), vs[i], runs[i].q_bs[t],
               runs[i].q_users[t]});
  }
  std::printf("\nCSV written to fig2bc_data_queues.csv\n");
  return 0;
}
