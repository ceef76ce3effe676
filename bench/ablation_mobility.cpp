// Ablation (extension): user mobility. The paper's "mobile" users never
// move in its evaluation; this sweep walks them at pedestrian through
// vehicular speeds (random waypoint) and shows how churn in the gain
// matrix erodes the backpressure gradients: relay chains formed for one
// geometry stop matching the next, so delivery falls and the per-packet
// energy cost rises with speed.
#include "common.hpp"

using namespace gc;
using namespace gc::bench;

int main() {
  const int slots = horizon(80);
  const double V = 3.0;

  print_title("Ablation — user mobility (random waypoint)",
              "T = " + std::to_string(slots) + " slots, V = " + num(V));
  print_row({"speed m/s", "delivered", "avg_cost", "cost/packet",
             "avg_delay"}, 16);
  CsvWriter csv("ablation_mobility.csv",
                {"speed_mps", "delivered", "avg_cost", "delay_slots"});
  CsvWriter timing = timing_csv(csv.path(), {"speed_mps"});

  for (double speed : {0.0, 1.5, 5.0, 15.0, 30.0}) {
    auto cfg = sim::ScenarioConfig::paper();
    auto model = cfg.build();
    core::LyapunovController controller(model, V, cfg.controller_options());
    sim::Metrics m;
    if (speed > 0.0) {
      sim::MobilityConfig mob{0.0, speed, cfg.area_m};
      m = sim::run_simulation_mobile(model, controller, slots, mob);
    } else {
      m = sim::run_simulation(model, controller, slots);
    }
    print_row({num(speed), num(m.total_delivered_packets),
               num(m.cost_avg.average()),
               num(m.cost_avg.average() /
                   std::max(m.total_delivered_packets / slots, 1e-9)),
               num(m.average_delay_slots())}, 16);
    csv.row({speed, m.total_delivered_packets, m.cost_avg.average(),
             m.average_delay_slots()});
    timing.row(with_timing({speed}, m));
  }
  std::printf("\nCSV written to ablation_mobility.csv (wall times in %s)\n",
              timing.path().c_str());
  return 0;
}
