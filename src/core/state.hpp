// NetworkState: all time-varying state the online algorithm conditions on —
// data queues Q_i^s, virtual link queues G_ij (H_ij = beta G_ij), and the
// batteries x_i with their shifted images z_i — plus the queue-law updates
// of eqs. (15), (28)/(30) and (4)/(31).
#pragma once

#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "core/types.hpp"
#include "energy/battery.hpp"

namespace gc::core {

// One stored virtual link queue: link = tx * n + rx, g = G_ij(t) > 0.
struct GEntry {
  std::int64_t link = 0;
  double g = 0.0;
};

class NetworkState {
 public:
  // V is the drift-plus-penalty weight; it fixes the z_i shift.
  NetworkState(const NetworkModel& model, double V);

  const NetworkModel& model() const { return *model_; }
  double V() const { return v_; }
  int slot() const { return slot_; }

  // Q_i^s(t); identically +0.0 at the session's destination (the paper's
  // destinations pass data straight up the stack): advance() never steps
  // that entry and set_q stores +0.0 there, so the read needs no lookup.
  double q(int node, int session) const { return q_[qi(node, session)]; }
  // Every Q_i^s, node-major (index node * S + session), +0.0 at each
  // session's destination; the whole-state sums walk it in this order.
  const std::vector<double>& q_table() const { return q_; }
  // G_ij(t) (packets) and H_ij(t) = beta * G_ij(t); 0 for a link the
  // store holds no entry for.
  double g_queue(int tx, int rx) const;
  double h(int tx, int rx) const { return model_->beta() * g_queue(tx, rx); }
  // Every G_ij > 0, ascending by link (row-major). Law (28) only raises G
  // on links the slot routed over, so this holds the few links with
  // traffic, not the n^2 pairs; the scans that weight by H walk it
  // (docs/ALGORITHM.md "Why walking only G's nonzeros is exact").
  const std::vector<GEntry>& g_entries() const { return gq_; }
  // Battery level x_i(t) and shifted level z_i(t) = x_i - V*gamma_max - d_max.
  double battery_j(int node) const;
  double z(int node) const;
  const energy::Battery& battery(int node) const;

  // Headroom helpers the energy manager needs (eqs. (11), (12)).
  double charge_headroom_j(int node) const;
  double discharge_headroom_j(int node) const;

  // Applies one slot's decision: queue laws (15) and (28), battery law (4).
  // Returns the Q and G entries it stepped (the state.advance span's dim).
  std::int64_t advance(const SlotDecision& decision);

  // Graceful degradation (docs/ROBUSTNESS.md): when enabled, advance()
  // clamps NaN / negative queue values to 0 and clips battery actions to
  // their headrooms — counting every repair in the obs registry
  // (state.sanitized_*) — instead of letting GC_CHECK abort the run.
  // Off by default; the controller switches it on for non-validate runs.
  void set_sanitize(bool on) { sanitize_ = on; }
  bool sanitize() const { return sanitize_; }

  // Direct state injection for tests and what-if analyses; not used by the
  // online algorithm itself. Both store -0.0 as +0.0, and set_q stores 0
  // at the session's destination.
  void set_q(int node, int session, double value);
  void set_g_queue(int tx, int rx, double value);
  // Checkpoint support: replaces every G_ij with `entries`, which must be
  // strictly ascending by link, off the diagonal, and hold values > 0.
  void restore_g_entries(std::vector<GEntry> entries);
  void set_battery_j(int node, double value);
  // Battery capacity fade (fault injection): shrinks node i's battery to
  // `capacity_j`, rescaling per-slot limits so eq. (13) keeps holding.
  // Returns the joules the stored level lost to the clamp.
  double set_battery_capacity_j(int node, double capacity_j);
  // Checkpoint support: reinstate the stored level exactly without
  // resetting a faded capacity (unlike set_battery_j, which rebuilds the
  // battery from the model's pristine parameters).
  void restore_battery_level_j(int node, double level_j);
  double battery_capacity_j(int node) const {
    return batteries_[node].params().capacity_j;
  }
  // Pins the slot index (which keys time-varying tariffs); used by the
  // lower-bound solver's scratch state and by tests.
  void set_slot(int slot) {
    GC_CHECK(slot >= 0);
    slot_ = slot;
  }

  // Aggregates for the Fig. 2 panels.
  double total_data_queue_bs() const;
  double total_data_queue_users() const;
  double total_battery_bs_j() const;
  double total_battery_users_j() const;
  double total_virtual_queue() const;

 private:
  int qi(int node, int session) const {
    return node * model_->num_sessions() + session;
  }
  std::int64_t li(int tx, int rx) const {
    return static_cast<std::int64_t>(tx) * model_->num_nodes() + rx;
  }

  // Clamps NaN / negative queue values when sanitizing (counted in the obs
  // registry); returns the value unchanged otherwise.
  double sanitize_queue_value(double v) const;

  const NetworkModel* model_;
  double v_;
  int slot_ = 0;
  bool sanitize_ = false;
  std::vector<double> q_;        // N x S
  std::vector<GEntry> gq_;       // G_ij > 0, ascending by link
  std::vector<energy::Battery> batteries_;
};

}  // namespace gc::core
