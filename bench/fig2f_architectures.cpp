// Fig. 2(f): time-averaged expected energy cost of four architectures for
// V in {1, 3, 5} (the paper's {1, 3, 5} x 1e5):
//   1. our system          (multi-hop, renewables)
//   2. multi-hop w/o renewable energy
//   3. one-hop w/ renewable energy
//   4. one-hop w/o renewable energy
//
// Every architecture sees the same sample path (bandwidths, connectivity,
// and — where enabled — renewable outputs share the seed).
//
// Two tables are printed (see EXPERIMENTS.md):
//  * offered-load comparison at the paper's 100 kbps sessions. A one-hop
//    network with two single-radio base stations physically cannot carry
//    that demand, so raw cost is confounded by throughput; the cost per
//    delivered packet restores the comparison the paper intends.
//  * throughput-equalized comparison at a demand every architecture can
//    carry, where raw cost is directly comparable.
//
// Expected shape (paper): ours lowest; renewables cut the bill; multi-hop
// beats one-hop.
#include "common.hpp"

using namespace gc;
using namespace gc::bench;

namespace {

struct Arch {
  const char* name;
  bool multihop;
  bool renewables;
};

const std::vector<Arch> kArchs = {
    {"ours (multi-hop + renewables)", true, true},
    {"multi-hop w/o renewables", true, false},
    {"one-hop w/ renewables", false, true},
    {"one-hop w/o renewables", false, false},
};

void run_table(const char* title, double session_rate_bps, int num_sessions,
               int slots, const std::vector<double>& vs, CsvWriter& csv,
               bool per_packet) {
  print_title(title, "T = " + std::to_string(slots) +
                         " slots; identical sample paths; " +
                         std::to_string(num_sessions) + " sessions at " +
                         num(session_rate_bps / 1e3) + " kbps");
  std::vector<std::string> head = {"architecture"};
  for (double v : vs) head.push_back("V=" + num(v));
  head.push_back("delivered");
  print_row(head, 32);

  // One run per (architecture, V), flattened:
  // runs[a * vs.size() + i] is architecture a at V = vs[i].
  std::vector<sim::Metrics> runs;
  for (const auto& arch : kArchs) {
    for (double v : vs) {
      sim::SimJob job;
      job.scenario = sim::ScenarioConfig::paper();
      job.scenario.multihop = arch.multihop;
      job.scenario.renewables = arch.renewables;
      job.scenario.session_rate_bps = session_rate_bps;
      job.scenario.num_sessions = num_sessions;
      job.V = v;
      job.slots = slots;
      runs.push_back(sim::run_job(job));
    }
  }

  for (std::size_t a = 0; a < kArchs.size(); ++a) {
    const Arch& arch = kArchs[a];
    std::vector<std::string> row = {arch.name};
    double delivered = 0.0;
    for (std::size_t i = 0; i < vs.size(); ++i) {
      const double v = vs[i];
      const sim::Metrics& m = runs[a * vs.size() + i];
      delivered = m.total_delivered_packets;
      const double value =
          per_packet ? m.cost_avg.average() /
                           std::max(m.total_delivered_packets / slots, 1e-9)
                     : m.cost_avg.average();
      row.push_back(num(value));
      csv.row_strings({arch.name, arch.multihop ? "1" : "0",
                       arch.renewables ? "1" : "0", num(session_rate_bps),
                       num(v), num(m.cost_avg.average()),
                       num(m.total_delivered_packets),
                       num(m.total_demand_shortfall)});
    }
    row.push_back(num(delivered));
    print_row(row, 32);
  }
}

}  // namespace

int main() {
  const int slots = horizon(60);
  const std::vector<double> vs = {1.0, 3.0, 5.0};

  CsvWriter csv("fig2f_architectures.csv",
                {"arch", "multihop", "renewables", "session_rate_bps", "V",
                 "avg_cost", "delivered_packets", "shortfall_packets"});

  run_table(
      "Fig. 2(f) — energy cost per delivered packet (paper offered load)",
      100e3, 4, slots, vs, csv, /*per_packet=*/true);
  // Two sessions so the one-hop network (two single-radio base stations =
  // at most two destinations per slot) can carry the full demand.
  run_table(
      "Fig. 2(f) — raw time-averaged energy cost (throughput-equalized load)",
      50e3, 2, slots, vs, csv, /*per_packet=*/false);

  std::printf("\nCSV written to fig2f_architectures.csv\n");
  return 0;
}
