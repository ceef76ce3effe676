// Slot-boundary outputs (docs/OBSERVABILITY.md "Slot-boundary outputs"):
// everything a run writes or publishes between slots — the trace, the
// event journal, alert evaluation, snapshots, the HTTP exporter, the
// lp-log flush and checkpoints — behind one interface, so the slot loop
// (sim/simulator.cpp) only steps the network and calls the list.
//
// Each output hides its own file format and resume cut. The list order is
// part of the outputs' bytes and fixed by make_slot_outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/controller.hpp"
#include "core/model.hpp"
#include "obs/stability.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace gc::policy {
class SleepController;
}

namespace gc::sim {

// A slot's sums, computed once per slot and read by the Metrics, the
// auditor, the trace and the live telemetry.
struct SlotTotals {
  // Decision sums.
  double delivered_packets = 0.0;  // routed into their session destination
  double admitted_packets = 0.0;
  double routed_packets = 0.0;
  double curtailed_j = 0.0;
  double shortfall_packets = 0.0;
  // Post-slot state sums.
  double q_bs = 0.0;     // BS data backlog (packets)
  double q_users = 0.0;  // user data backlog (packets)
  double h_total = 0.0;  // virtual-queue sum
  double battery_bs_j = 0.0;
  double battery_users_j = 0.0;
};

// The decision's sums and the post-slot state's.
SlotTotals slot_totals(const core::NetworkModel& model,
                       const core::NetworkState& state,
                       const core::SlotDecision& decision);

// One completed slot, built once and handed to every output.
struct SlotView {
  int t = 0;
  const core::SlotDecision& decision;
  const core::NetworkState& state;  // after the slot's queue update
  int fault_events = 0;             // fault events active this slot
  std::uint64_t policy_switches = 0;  // sleep/wake commands issued this slot
  const obs::SlotAudit& audit;
  const obs::SlotVerdict& verdict;
  const Metrics& metrics;  // including this slot
  const SlotTotals& totals;
};

// The live loop objects outputs read (the checkpoint writer saves them).
// `mobility`, `topology` and `sleep` may be null.
struct RunState {
  const core::NetworkModel& model;
  const core::LyapunovController& controller;
  const Rng& input_rng;
  const Metrics& metrics;
  const RandomWaypoint* mobility;
  const net::Topology* topology;
  const obs::StabilityAuditor& auditor;
  const policy::SleepController* sleep;
  int slots;  // the run's horizon
};

class SlotOutput {
 public:
  virtual ~SlotOutput() = default;
  // Once, before the first slot; resume_slot is where the run continues
  // (0 = fresh).
  virtual void begin(int /*resume_slot*/) {}
  // After every completed slot.
  virtual void after_slot(const SlotView& /*view*/) {}
  // A checkpoint covering the slots before next_slot is about to be
  // written, or the run ends without one: make every record so far
  // durable.
  virtual void before_checkpoint(int /*next_slot*/) {}
  // Once, after the last slot this process ran: at the horizon, or at a
  // graceful-shutdown request (interrupted).
  virtual void finish(int /*completed_slots*/, bool /*interrupted*/) {}
};

// The ordered output list. Each call walks it front to back.
class SlotOutputs {
 public:
  void add(std::unique_ptr<SlotOutput> output);
  void begin(int resume_slot);
  void after_slot(const SlotView& view);
  // Every output's before_checkpoint, under one sim.sink_flush span.
  void flush(int next_slot);
  void finish(int completed_slots, bool interrupted);

 private:
  std::vector<std::unique_ptr<SlotOutput>> outputs_;
};

// The outputs `options` asks for, in contract order: event journal,
// strict-bounds abort, trace, lp-log flush, alert engine, checkpoint
// writer (it also does the final flush of a run without checkpoints),
// then the snapshot writer and HTTP exporter as one output (snapshot
// first).
std::unique_ptr<SlotOutputs> make_slot_outputs(const SimOptions& options,
                                               const RunState& run);

}  // namespace gc::sim
