// Dynamic base-station sleep / HetNet tier control layer.
//
// A SleepController sits ABOVE the per-slot Lyapunov controller: once per
// slot, before LyapunovController::step observes the inputs, it decides
// which base stations are awake and writes the result into the
// SlotInputs sleep overlay (core/types.hpp). The per-slot controller then
// optimizes S1–S4 over the awake set unchanged — a sleeping BS is masked
// out of scheduling, admission and routing exactly like a down node, but
// its S4 energy demand is replaced by the tier's sleep power (plus any
// switching energy), which it still purchases through the normal energy
// ledger.
//
// Tiers (macro / small cell, Han & Ansari style) give base stations
// distinct idle/active power models and sleep parameters; policies
// (Che/Duan/Zhang style) decide who sleeps:
//
//   AlwaysOn         — inert; the controller never fills the overlay and
//                      every run is bit-identical to the policy-free seed.
//   Threshold        — single load threshold: sleep candidates doze when
//                      the mean awake-BS backlog is below it, wake when at
//                      or above it.
//   Hysteresis       — dual thresholds plus a minimum dwell time in each
//                      mode, killing the switch chatter Threshold exhibits
//                      around its set point.
//   DriftPlusPenalty — per-BS score V * price * (energy saved asleep)
//                      minus the frozen-backlog drain term beta * Q_b,
//                      with the switching energy folded into the penalty
//                      side (amortized over the minimum dwell); see
//                      docs/ALGORITHM.md for why the Lemma-1 bound still
//                      holds over the awake set.
//
// Wake latency: a sleeping BS ordered awake spends wake_latency_slots in a
// Waking mode — still masked, still paying sleep power — and pays
// wake_switch_j on the final waking slot. Faults compose: a slept BS hit
// by a node outage is forced into the wake transition, so it wakes into
// the outage (sleep-vs-outage interaction studies).
//
// Determinism: decide() is a pure function of (slot, queue state, fault
// overlay, own mode state), and the mode state rides in checkpoints
// (sim/checkpoint.hpp, format v5), so killed + resumed runs replay the
// policy bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/state.hpp"
#include "core/types.hpp"

namespace gc::policy {

// One base-station tier (scenario schema bs.tiers[]). Tiers are assigned
// to BS indices in order by `count`; base stations beyond the last tier
// keep the scenario's energy.bs power model and the default sleep
// parameters. Power fields override energy.bs in the built model, so a
// tier IS structural (it changes NodeParams); the sleep fields only feed
// the policy layer.
struct TierSpec {
  std::string name = "tier";
  int count = 0;
  // Power-model overrides (defaults: the paper's BS values).
  double const_w = 30.0;
  double idle_w = 10.0;
  double recv_w = 0.5;
  double tx_max_w = 20.0;
  // Sleep behavior.
  double sleep_power_w = 2.0;   // draw while asleep (and while waking)
  int wake_latency_slots = 1;   // Waking slots before service resumes
  double sleep_switch_j = 0.0;  // paid on the slot a BS falls asleep
  double wake_switch_j = 0.0;   // paid on the last Waking slot
  bool can_sleep = true;        // false: the tier never leaves Awake

  bool operator==(const TierSpec&) const = default;
};

enum class SleepPolicy { AlwaysOn, Threshold, Hysteresis, DriftPlusPenalty };

// The policies' names, indexed by SleepPolicy: the one table behind
// sleep_policy_name, parse_sleep_policy, the scenario schema's
// bs.sleep.policy and the --policy flag.
inline constexpr const char* kSleepPolicyNames[] = {
    "always-on", "threshold", "hysteresis", "drift-plus-penalty"};

// Policy knobs (scenario schema bs.sleep; overridable per run with
// --policy and friends). NOT structural: like the tariff, the sleep block
// may be swapped at a hot-reload boundary without changing any state
// dimension.
struct SleepPolicyConfig {
  SleepPolicy policy = SleepPolicy::AlwaysOn;
  // Backlog thresholds in packets (mean over awake base stations).
  // Threshold uses sleep_threshold for both directions; Hysteresis sleeps
  // below sleep_threshold and wakes at wake_threshold.
  double sleep_threshold = 1.0;
  double wake_threshold = 4.0;
  int min_dwell_slots = 3;  // Hysteresis / DriftPlusPenalty: slots per mode
  int min_awake_bs = 1;     // never sleep the network below this
  // DriftPlusPenalty: weight on the switching-energy term folded into the
  // penalty (0 ignores switching cost, 1 amortizes it over min_dwell).
  double switch_cost_weight = 1.0;

  bool operator==(const SleepPolicyConfig&) const = default;
};

// Per-BS sleep parameters after tier expansion, indexed by BS.
struct BsSleepParams {
  double sleep_power_w = 2.0;
  int wake_latency_slots = 1;
  double sleep_switch_j = 0.0;
  double wake_switch_j = 0.0;
  bool can_sleep = true;
};

// Plain-data bundle a run needs to build its own SleepController. Keeping
// this (not a live controller) in sim::SimOptions lets every run,
// supervised restart and checkpoint resume construct a private
// controller (sim/simulator.hpp).
struct SleepSetup {
  SleepPolicyConfig config;
  std::vector<BsSleepParams> bs;  // indexed by BS; empty = defaults

  // AlwaysOn is inert by construction: a run builds no controller for it,
  // so the run is bit-identical to one with no policy at all.
  bool active() const { return config.policy != SleepPolicy::AlwaysOn; }
};

const char* sleep_policy_name(SleepPolicy p);
// Parses "always-on" | "threshold" | "hysteresis" | "drift-plus-penalty";
// throws CheckError naming the accepted set otherwise.
SleepPolicy parse_sleep_policy(const std::string& name);

// Serializable mode state (checkpoint v5 policy section).
struct SleepControllerState {
  std::vector<std::uint8_t> mode;          // 0 Awake, 1 Sleeping, 2 Waking
  std::vector<std::int32_t> dwell;         // slots spent in current mode
  std::vector<std::int32_t> wake_countdown;  // Waking slots remaining
  std::uint64_t switches = 0;       // sleep->wake and wake->sleep commands
  double switch_energy_j = 0.0;     // cumulative switching energy charged
  std::uint64_t sleep_slots = 0;    // cumulative BS-slots spent non-awake
};

class SleepController {
 public:
  enum class Mode : std::uint8_t { Awake = 0, Sleeping = 1, Waking = 2 };

  SleepController(const core::NetworkModel& model, const SleepSetup& setup,
                  double V);

  // Evaluates the policy for one slot and fills the sleep overlay
  // (node_asleep, policy_demand_j) of `inputs`. Must run AFTER the fault
  // overlay has been applied (a down BS is forced toward Awake so it wakes
  // into the outage) and before the controller observes the inputs.
  void decide(int slot, const core::NetworkState& state,
              core::SlotInputs& inputs);

  // Stats for the trace policy group, the obs registry and reports.
  int num_bs() const { return static_cast<int>(mode_.size()); }
  int awake_count() const;
  int asleep_count() const;   // Sleeping only
  int waking_count() const;
  std::uint64_t switch_count() const { return st_.switches; }
  double switch_energy_j() const { return st_.switch_energy_j; }
  std::uint64_t sleep_slots() const { return st_.sleep_slots; }
  Mode mode(int bs) const { return mode_[bs]; }

  // Checkpoint support: the full replayable mode state.
  SleepControllerState snapshot() const;
  void restore(const SleepControllerState& s);

 private:
  void charge_switch(int bs, double j);
  void command_sleep(int bs);
  void command_wake(int bs);

  const core::NetworkModel* model_;
  SleepPolicyConfig config_;
  std::vector<BsSleepParams> bs_;
  double v_;
  std::vector<Mode> mode_;
  std::vector<std::int32_t> dwell_;
  std::vector<std::int32_t> wake_countdown_;
  SleepControllerState st_;  // mode/dwell mirrors filled on snapshot()
  std::vector<double> backlog_;          // scratch: per-BS data backlog
  std::vector<double> pending_switch_j_;  // scratch: this slot's switch energy
};

}  // namespace gc::policy
