// Fig. 2(d) and 2(e): total energy-buffer level of base stations (d) and
// mobile users (e) over time, for V in {1..5}.
//
// Expected shape: buffers grow from their initial level and remain bounded;
// base-station buffers order by V (a larger V raises the z-shift target
// V*(gamma_max - f'), so storage charges harder — the Fig. 2(d) mechanism).
// User buffers are driven by renewable surplus and plug-in charging, which
// the z-shift saturates for every V in the sweep, so their V-ordering is
// weak (see EXPERIMENTS.md).
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
    print_title(users ? "Fig. 2(e) — total user energy buffer (kJ)"
                      : "Fig. 2(d) — total BS energy buffer (kJ)",
                "rows = time slots (minutes), columns = V");
    std::vector<std::string> head = {"t"};
    for (double v : vs) head.push_back("V=" + num(v));
    print_row(head);
    const int stride = std::max(slots / 20, 1);
    for (int t = 0; t < slots; t += stride) {
      std::vector<std::string> row = {num(t + 1)};
      for (const auto& m : runs)
        row.push_back(
            num((users ? m.battery_users_j[t] : m.battery_bs_j[t]) / 1e3));
      print_row(row);
    }
  }

  CsvWriter csv("fig2de_energy_buffers.csv",
                {"t", "V", "battery_bs_kj", "battery_users_kj"});
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (int t = 0; t < slots; ++t)
      csv.row({static_cast<double>(t + 1), vs[i],
               runs[i].battery_bs_j[t] / 1e3,
               runs[i].battery_users_j[t] / 1e3});
  }
  std::printf("\nCSV written to fig2de_energy_buffers.csv\n");
  return 0;
}
