// Robustness: the headline claims (architecture ordering, stability,
// bounded backlog) across independent topologies and sample paths. Runs
// the paper scenario under several seeds and reports mean / min / max of
// the key metrics, plus how often the Fig. 2(f) architecture ordering
// holds.
#include "common.hpp"

using namespace gc;
using namespace gc::bench;

namespace {

sim::SimJob make_job(std::uint64_t seed, bool multihop, bool renewables,
                     int slots) {
  sim::SimJob job;
  job.scenario = sim::ScenarioConfig::paper();
  job.scenario.seed = seed;
  job.scenario.multihop = multihop;
  job.scenario.renewables = renewables;
  job.V = 3.0;
  job.slots = slots;
  job.sim.input_seed = seed + 101;
  return job;
}

double cost_per_packet(const sim::Metrics& m) {
  return m.cost_avg.average() / std::max(m.total_delivered_packets, 1.0);
}

}  // namespace

int main() {
  const int slots = horizon(100);
  const int seeds = env_int("REPRO_SEEDS", full_repro() ? 20 : 10, 1);

  print_title("Seed robustness of the headline claims",
              std::to_string(seeds) + " independent topologies+paths, T = " +
                  std::to_string(slots) + ", V = 3");

  // Three architectures per seed, flattened:
  // runs[3k] = ours, runs[3k+1] = no renewables, runs[3k+2] = one-hop.
  std::vector<sim::Metrics> runs;
  for (int k = 0; k < seeds; ++k) {
    const std::uint64_t seed = 1000 + 13 * static_cast<std::uint64_t>(k);
    runs.push_back(sim::run_job(make_job(seed, true, true, slots)));
    runs.push_back(sim::run_job(make_job(seed, true, false, slots)));
    runs.push_back(sim::run_job(make_job(seed, false, true, slots)));
  }

  RunningStat ours_cpp, renew_saving, multihop_cpp_gain;
  int ordering_holds = 0;
  for (int k = 0; k < seeds; ++k) {
    const sim::Metrics& ours = runs[3 * k];
    const sim::Metrics& no_renew = runs[3 * k + 1];
    const sim::Metrics& onehop = runs[3 * k + 2];

    const double cpp_ours = cost_per_packet(ours);
    const double cpp_norenew = cost_per_packet(no_renew);
    const double cpp_onehop = cost_per_packet(onehop);
    ours_cpp.add(cpp_ours);
    renew_saving.add(
        (no_renew.cost_avg.average() - ours.cost_avg.average()) /
        no_renew.cost_avg.average());
    multihop_cpp_gain.add((cpp_onehop - cpp_ours) / cpp_onehop);
    if (cpp_ours < cpp_norenew && cpp_ours < cpp_onehop) ++ordering_holds;
  }

  print_row({"metric", "mean", "min", "max"}, 30);
  print_row({"cost per delivered packet", num(ours_cpp.mean()),
             num(ours_cpp.min()), num(ours_cpp.max())}, 30);
  print_row({"renewable saving (frac)", num(renew_saving.mean()),
             num(renew_saving.min()), num(renew_saving.max())}, 30);
  print_row({"multi-hop per-pkt gain", num(multihop_cpp_gain.mean()),
             num(multihop_cpp_gain.min()), num(multihop_cpp_gain.max())},
            30);
  std::printf("\n'ours cheapest per packet' held on %d/%d seeds\n",
              ordering_holds, seeds);
  return 0;
}
