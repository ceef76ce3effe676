// Fault injection for crash-proof long runs (docs/ROBUSTNESS.md).
//
// A FaultSchedule is a *pure function of the slot index*: at(t) returns the
// slot's fault overlay without mutating any internal state, so a resumed
// (checkpointed) run reproduces the exact fault series by simply
// re-evaluating at(t) — no fault state needs serializing. Stochastic fault
// windows are driven by seeded Bernoulli draws keyed on (event, slot)
// through Rng::fork, which depends only on the seed, never on draw order.
//
// Fault kinds (Section II vocabulary):
//  * NodeOutage        — the node is fully down for the window: it admits,
//                        forwards, transmits, receives, charges and
//                        discharges nothing; its queues and battery freeze.
//  * RenewableBlackout — renewable arrivals forced to 0 (cloud cover);
//                        node = -1 blacks out every node at once.
//  * GridOutage        — omega_i(t) forced to 0; node = -1 is grid-wide.
//  * PriceSpike        — the slot tariff f is scaled by `magnitude` (> 1
//                        for a spike); global, `node` is ignored.
//  * BatteryFade       — node's capacity fades linearly from 100% at
//                        `start` to fraction `magnitude` at start+duration
//                        and stays there (per-slot limits shrink along to
//                        keep eq. (13)); deterministic only.
//  * LinkFade          — directed link (node -> peer) is in a deep fade and
//                        carries nothing for the window.
//  * ProcessKill       — the simulator process itself dies (SIGKILL) at the
//                        start of slot `start`: a first-class injectable
//                        crash for the kill-chaos harness. Deterministic
//                        only, never perturbs the slot's physics — it is
//                        excluded from active_events and apply_slot_faults
//                        so a killed+resumed run's metrics and traces match
//                        an uninterrupted one's bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/state.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace gc::fault {

// One fault process. Deterministic windows pin `start` >= 0; stochastic
// ones leave start = -1 and give a per-slot window-start `probability`
// (each slot u independently starts a window covering [u, u + duration)).
struct FaultEvent {
  enum class Kind {
    NodeOutage,
    RenewableBlackout,
    GridOutage,
    PriceSpike,
    BatteryFade,
    LinkFade,
    ProcessKill,
  };
  Kind kind = Kind::NodeOutage;
  int node = -1;  // target node; -1 = all nodes (blackout / grid outage)
  int peer = -1;  // LinkFade receiver
  int start = -1;          // first covered slot; -1 = stochastic
  int duration = 1;        // window length in slots
  double probability = 0.0;  // per-slot window-start probability (start<0)
  double magnitude = 1.0;  // PriceSpike: tariff multiplier (>= 0);
                           // BatteryFade: final capacity fraction [0, 1]
};

const char* to_string(FaultEvent::Kind k);

// The fully expanded fault overlay of one slot.
struct SlotFaults {
  std::vector<char> node_down;           // empty when no outage can occur
  std::vector<char> renewable_blackout;  // empty when none can occur
  std::vector<char> grid_outage;         // empty when none can occur
  std::vector<char> link_faded;          // n*n row-major; empty when unused
  double cost_multiplier = 1.0;
  // Per-node battery capacity as a fraction of the model's pristine value;
  // empty when no fade event exists.
  std::vector<double> battery_capacity_fraction;
  // How many events were active this slot (one event may cover many nodes).
  // ProcessKill events never count here.
  int active_events = 0;
  // Highest rank (by (start, insertion order), 0-based) among ProcessKill
  // events firing at this slot, or -1 when none do. The run loop raises
  // SIGKILL iff kill_ordinal >= the number of kills already survived, so
  // each restart skips exactly the kills that already fired — including a
  // second kill scheduled at the very same slot.
  int kill_ordinal = -1;

  bool any() const { return active_events > 0; }
};

class FaultSchedule {
 public:
  explicit FaultSchedule(int num_nodes, std::uint64_t seed = 0);

  // Validates the event against this schedule's node count; throws
  // gc::CheckError on out-of-range targets or inconsistent parameters.
  void add(const FaultEvent& event);

  // Builds a schedule from a JSON spec (schema in docs/ROBUSTNESS.md):
  //   {"seed": 42,
  //    "events": [{"kind": "node_outage", "node": 3,
  //                "start": 100, "duration": 50},
  //               {"kind": "price_spike", "magnitude": 4.0,
  //                "probability": 0.005, "duration": 10}, ...]}
  // Throws gc::CheckError naming the key path on malformed JSON, unknown
  // keys or kinds, and int fields that are not integers in range.
  static FaultSchedule from_json(const std::string& json_text, int num_nodes);
  static FaultSchedule from_json_file(const std::string& path, int num_nodes);

  int num_nodes() const { return num_nodes_; }
  std::uint64_t seed() const { return seed_; }
  bool empty() const { return events_.empty(); }
  int num_events() const { return static_cast<int>(events_.size()); }
  const std::vector<FaultEvent>& events() const { return events_; }

  // Pure per-slot evaluation; t >= 0.
  SlotFaults at(int t) const;

 private:
  bool window_active(std::size_t event_idx, const FaultEvent& e, int t) const;
  // BatteryFade capacity fraction at slot t (1.0 before `start`).
  double fade_fraction(const FaultEvent& e, int t) const;

  int num_nodes_;
  std::uint64_t seed_;
  std::vector<FaultEvent> events_;
};

// Imposes the slot's faults on what the controller is about to observe:
// rewrites `inputs` (node_down / link_faded overlay, renewable blackout,
// grid outage, price multiplier) and applies battery fade to `state`.
// Every injected fault is counted in the obs registry (fault.*).
void apply_slot_faults(const SlotFaults& faults, core::SlotInputs& inputs,
                       core::NetworkState& state);

}  // namespace gc::fault
