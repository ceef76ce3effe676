// Ablation (extension): radios per node. The paper's constraint (22)
// assumes a single radio; this sweep shows what additional radios buy in
// throughput and what they cost in energy on the paper scenario, at a
// demand high enough to saturate the single-radio schedule.
#include "common.hpp"

using namespace gc;
using namespace gc::bench;

int main() {
  const int slots = horizon(60);
  const double V = 3.0;

  print_title("Ablation — radios per node (generalized constraint (22))",
              "T = " + std::to_string(slots) +
                  " slots, V = " + num(V) + ", 4 sessions at 400 kbps");
  print_row({"bs_radios", "user_radios", "delivered", "links/slot",
             "avg_cost", "cost/packet"}, 16);
  CsvWriter csv("ablation_radios.csv",
                {"bs_radios", "user_radios", "delivered", "links_per_slot",
                 "avg_cost"});

  struct Sweep {
    int bs, user;
  };
  const std::vector<Sweep> sweeps = {
      Sweep{1, 1}, Sweep{2, 1}, Sweep{3, 1}, Sweep{2, 2}, Sweep{3, 2}};

  // This bench counts scheduled links per slot, which Metrics does not
  // carry, so each point runs its own controller loop.
  for (const Sweep& sw : sweeps) {
    auto cfg = sim::ScenarioConfig::paper();
    cfg.bs_radios = sw.bs;
    cfg.user_radios = sw.user;
    cfg.session_rate_bps = 400e3;  // saturate single-radio schedule
    const auto model = cfg.build();
    core::LyapunovController controller(model, V, cfg.controller_options());
    Rng rng(7);
    double delivered = 0.0, links = 0.0;
    TimeAverage cost;
    for (int t = 0; t < slots; ++t) {
      const auto d = controller.step(model.sample_inputs(t, rng));
      links += static_cast<double>(d.schedule.size());
      for (const auto& r : d.routes)
        if (r.rx == model.session(r.session).destination)
          delivered += r.packets;
      cost.add(d.cost);
    }
    const double avg_cost = cost.average();
    print_row({num(sw.bs), num(sw.user), num(delivered), num(links / slots),
               num(avg_cost),
               num(avg_cost / std::max(delivered / slots, 1e-9))}, 16);
    csv.row({static_cast<double>(sw.bs), static_cast<double>(sw.user),
             delivered, links / slots, avg_cost});
  }
  std::printf("\nCSV written to ablation_radios.csv\n");
  return 0;
}
