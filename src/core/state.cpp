#include "core/state.hpp"

#include <algorithm>
#include <cmath>

#include "obs/registry.hpp"
#include "queueing/queues.hpp"

namespace gc::core {

namespace {

// State-sanitization observability: how many queue values were repaired
// (NaN -> 0, negative -> 0) and how much battery action was clipped to the
// headrooms, instead of aborting the run.
struct SanitizeMetrics {
  obs::Counter& queue_values =
      obs::registry().counter("state.sanitized_queue_values");
  obs::Counter& battery_j =
      obs::registry().counter("state.sanitized_battery_j");
};

SanitizeMetrics& sanitize_metrics() {
  static thread_local SanitizeMetrics m;
  return m;
}

}  // namespace

NetworkState::NetworkState(const NetworkModel& model, double V)
    : model_(&model), v_(V) {
  GC_CHECK(V >= 0.0);
  const int n = model.num_nodes();
  q_.assign(static_cast<std::size_t>(n) * model.num_sessions(), 0.0);
  gq_.assign(static_cast<std::size_t>(n) * n, 0.0);
  batteries_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    batteries_.emplace_back(model.node(i).battery);
}

double NetworkState::q(int node, int session) const {
  if (model_->session(session).destination == node) return 0.0;
  return q_[qi(node, session)];
}

double NetworkState::g_queue(int tx, int rx) const { return gq_[li(tx, rx)]; }

double NetworkState::battery_j(int node) const {
  return batteries_[node].level_j();
}

double NetworkState::z(int node) const {
  return batteries_[node].level_j() - model_->shift_j(node, v_);
}

const energy::Battery& NetworkState::battery(int node) const {
  return batteries_[node];
}

double NetworkState::charge_headroom_j(int node) const {
  return batteries_[node].charge_headroom_j();
}

double NetworkState::discharge_headroom_j(int node) const {
  return batteries_[node].discharge_headroom_j();
}

void NetworkState::advance(const SlotDecision& decision) {
  const int n = model_->num_nodes();
  const int S = model_->num_sessions();
  GC_CHECK(static_cast<int>(decision.energy.size()) == n);
  GC_CHECK(static_cast<int>(decision.admissions.size()) == S);

  // Data queues, law (15).
  std::vector<double> served(static_cast<std::size_t>(n) * S, 0.0);
  std::vector<double> relayed(static_cast<std::size_t>(n) * S, 0.0);
  for (const auto& r : decision.routes) {
    GC_CHECK(r.packets >= 0.0);
    served[qi(r.tx, r.session)] += r.packets;
    relayed[qi(r.rx, r.session)] += r.packets;
  }
  for (int s = 0; s < S; ++s) {
    const auto& adm = decision.admissions[s];
    for (int i = 0; i < n; ++i) {
      if (model_->session(s).destination == i) {
        q_[qi(i, s)] = 0.0;  // destinations keep no queue for their session
        continue;
      }
      const double admitted = (i == adm.source_bs) ? adm.packets : 0.0;
      q_[qi(i, s)] = sanitize_queue_value(queueing::queue_step(
          q_[qi(i, s)], served[qi(i, s)], relayed[qi(i, s)] + admitted));
    }
  }

  // Virtual link queues, law (28). Service is the scheduled capacity in
  // packets; arrivals are the routed packets. A link with neither keeps
  // its G (queue_step(G, 0, 0) == G for every G >= +0), so only the links
  // the decision names are stepped: each once, its service summed in
  // schedule order and its arrivals in route order, both from 0.0 as a
  // dense n x n sweep would (docs/ALGORITHM.md "Why the sparse queue law is
  // exact"). Self pairs carry no virtual queue.
  struct Term {
    int link;
    int seq;  // schedule entries first, then routes: the summation order
    double packets;
  };
  std::vector<Term> terms;
  terms.reserve(decision.schedule.size() + decision.routes.size());
  int seq = 0;
  for (const auto& sl : decision.schedule)
    if (sl.tx != sl.rx)
      terms.push_back({li(sl.tx, sl.rx), seq++, sl.capacity_packets});
  const int first_route = seq;
  for (const auto& r : decision.routes)
    if (r.tx != r.rx) terms.push_back({li(r.tx, r.rx), seq++, r.packets});
  std::sort(terms.begin(), terms.end(), [](const Term& a, const Term& b) {
    return a.link != b.link ? a.link < b.link : a.seq < b.seq;
  });
  for (std::size_t t = 0; t < terms.size();) {
    const int l = terms[t].link;
    double service = 0.0, arrivals = 0.0;
    for (; t < terms.size() && terms[t].link == l; ++t)
      (terms[t].seq < first_route ? service : arrivals) += terms[t].packets;
    gq_[l] = sanitize_queue_value(
        queueing::queue_step(gq_[l], service, arrivals));
  }

  // Batteries, law (4), with eqs. (9), (11), (12) enforced inside. When
  // sanitizing, a decision that escaped the solvers malformed (NaN, both
  // sides of (9), beyond a headroom) is clipped into legality — with the
  // repair counted — rather than aborting a multi-million-slot run.
  for (int i = 0; i < n; ++i) {
    const auto& e = decision.energy[i];
    double charge = e.charge_total_j();
    double discharge = e.discharge_j;
    if (sanitize_) {
      // Repair exactly what Battery::apply would reject, and nothing else:
      // a legal decision must pass through bit-identically so sanitized and
      // strict runs agree whenever no fault fires. Tolerances mirror
      // battery.cpp's kSlack handling.
      constexpr double kSlack = 1e-9;
      double clipped = 0.0;
      if (!std::isfinite(charge)) {
        clipped += 1.0;  // NaN carries no magnitude to count; tally 1 J
        charge = 0.0;
      }
      if (!std::isfinite(discharge)) {
        clipped += 1.0;
        discharge = 0.0;
      }
      if (charge < -kSlack) {
        clipped += -charge;
        charge = 0.0;
      }
      if (discharge < -kSlack) {
        clipped += -discharge;
        discharge = 0.0;
      }
      const double scale = std::max(
          {1.0, batteries_[i].params().capacity_j, charge, discharge});
      if (charge > kSlack * scale && discharge > kSlack * scale) {
        const double cancel = std::min(charge, discharge);  // eq. (9)
        charge -= cancel;
        discharge -= cancel;
        clipped += 2.0 * cancel;
      }
      const double c_max = batteries_[i].charge_headroom_j();
      const double d_max = batteries_[i].discharge_headroom_j();
      if (charge > c_max + kSlack * scale) {
        clipped += charge - c_max;
        charge = c_max;
      }
      if (discharge > d_max + kSlack * scale) {
        clipped += discharge - d_max;
        discharge = d_max;
      }
      if (clipped > 0.0) sanitize_metrics().battery_j.add(clipped);
    }
    batteries_[i].apply(charge, discharge);
  }

  ++slot_;
}

double NetworkState::sanitize_queue_value(double v) const {
  if (!sanitize_) return v;
  if (std::isnan(v) || v < 0.0) {
    sanitize_metrics().queue_values.add();
    return 0.0;
  }
  return v;
}

void NetworkState::set_q(int node, int session, double value) {
  GC_CHECK(value >= 0.0);
  q_[qi(node, session)] = value;
}

void NetworkState::set_g_queue(int tx, int rx, double value) {
  GC_CHECK(value >= 0.0 && tx != rx);
  // Stored as +0.0 for -0.0: advance() leaves an idle link's G untouched,
  // and checkpoints must hold the same bytes a queue step would produce.
  gq_[li(tx, rx)] = value == 0.0 ? 0.0 : value;
}

void NetworkState::set_battery_j(int node, double value) {
  energy::BatteryParams p = model_->node(node).battery;
  p.initial_level_j = value;
  batteries_[node] = energy::Battery(p);
}

double NetworkState::set_battery_capacity_j(int node, double capacity_j) {
  return batteries_[node].set_capacity_j(capacity_j);
}

void NetworkState::restore_battery_level_j(int node, double level_j) {
  batteries_[node].set_level_j(level_j);
}

double NetworkState::total_data_queue_bs() const {
  double total = 0.0;
  for (int i = 0; i < model_->num_base_stations(); ++i)
    for (int s = 0; s < model_->num_sessions(); ++s) total += q(i, s);
  return total;
}

double NetworkState::total_data_queue_users() const {
  double total = 0.0;
  for (int i = model_->num_base_stations(); i < model_->num_nodes(); ++i)
    for (int s = 0; s < model_->num_sessions(); ++s) total += q(i, s);
  return total;
}

double NetworkState::total_battery_bs_j() const {
  double total = 0.0;
  for (int i = 0; i < model_->num_base_stations(); ++i)
    total += batteries_[i].level_j();
  return total;
}

double NetworkState::total_battery_users_j() const {
  double total = 0.0;
  for (int i = model_->num_base_stations(); i < model_->num_nodes(); ++i)
    total += batteries_[i].level_j();
  return total;
}

double NetworkState::total_virtual_queue() const {
  double total = 0.0;
  for (double g : gq_) total += g;
  return total;
}

}  // namespace gc::core
