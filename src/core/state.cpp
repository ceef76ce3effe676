#include "core/state.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

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
  batteries_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    batteries_.emplace_back(model.node(i).battery);
}

namespace {

// The first entry whose link is not below `link`.
template <class It>
It entry_at_or_after(It begin, It end, std::int64_t link) {
  return std::lower_bound(
      begin, end, link,
      [](const GEntry& e, std::int64_t l) { return e.link < l; });
}

}  // namespace

double NetworkState::g_queue(int tx, int rx) const {
  const std::int64_t l = li(tx, rx);
  const auto it = entry_at_or_after(gq_.begin(), gq_.end(), l);
  return it != gq_.end() && it->link == l ? it->g : 0.0;
}

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

std::int64_t NetworkState::advance(const SlotDecision& decision) {
  const int n = model_->num_nodes();
  const int S = model_->num_sessions();
  GC_CHECK(static_cast<int>(decision.energy.size()) == n);
  GC_CHECK(static_cast<int>(decision.admissions.size()) == S);

  // Data queues, law (15). A queue with no service and no arrivals keeps
  // its value (queue_step(Q, 0, 0) == Q for every Q >= +0, and set_q never
  // stores -0.0), so only the (i, s) that a route or an admission names
  // are stepped: each once, its service and its relayed packets each
  // summed in route order from 0.0, the admission added last, as a dense
  // n x S sweep would. Destinations keep no queue for their session: their
  // entries stay 0.
  struct QTerm {
    int index;  // qi(node, session)
    int kind;   // 0 served, 1 relayed, 2 admitted: the summation order
    int seq;    // route order within a kind
    double packets;
  };
  std::vector<QTerm> q_terms;
  q_terms.reserve(2 * decision.routes.size() + decision.admissions.size());
  for (std::size_t k = 0; k < decision.routes.size(); ++k) {
    const auto& r = decision.routes[k];
    GC_CHECK(r.packets >= 0.0);
    const int seq = static_cast<int>(k);
    q_terms.push_back({qi(r.tx, r.session), 0, seq, r.packets});
    q_terms.push_back({qi(r.rx, r.session), 1, seq, r.packets});
  }
  for (int s = 0; s < S; ++s) {
    const auto& adm = decision.admissions[s];
    if (adm.source_bs < 0) continue;
    GC_CHECK(adm.source_bs < n);
    q_terms.push_back({qi(adm.source_bs, s), 2, 0, adm.packets});
  }
  std::sort(q_terms.begin(), q_terms.end(),
            [](const QTerm& a, const QTerm& b) {
              if (a.index != b.index) return a.index < b.index;
              return a.kind != b.kind ? a.kind < b.kind : a.seq < b.seq;
            });
  std::int64_t stepped = 0;
  for (std::size_t t = 0; t < q_terms.size();) {
    const int index = q_terms[t].index;
    double served = 0.0, relayed = 0.0, admitted = 0.0;
    for (; t < q_terms.size() && q_terms[t].index == index; ++t) {
      const QTerm& term = q_terms[t];
      (term.kind == 0 ? served : term.kind == 1 ? relayed : admitted) +=
          term.packets;
    }
    const int node = index / S;
    if (model_->session(index % S).destination == node) continue;
    q_[index] = sanitize_queue_value(
        queueing::queue_step(q_[index], served, relayed + admitted));
    ++stepped;
  }

  // Virtual link queues, law (28). Service is the scheduled capacity in
  // packets; arrivals are the routed packets. A link with neither keeps
  // its G (queue_step(G, 0, 0) == G for every G >= +0), so only the links
  // the decision names are stepped: each once, its service summed in
  // schedule order and its arrivals in route order, both from 0.0 as a
  // dense n x n sweep would (docs/ALGORITHM.md "Why the sparse queue law is
  // exact"). The stepped links merge into the ascending entry list in one
  // pass; a link that steps to 0 leaves it. Self pairs carry no virtual
  // queue.
  struct Term {
    std::int64_t link;
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
  std::vector<GEntry> next;
  next.reserve(gq_.size() + terms.size());
  auto old = gq_.cbegin();
  for (std::size_t t = 0; t < terms.size();) {
    const std::int64_t l = terms[t].link;
    double service = 0.0, arrivals = 0.0;
    for (; t < terms.size() && terms[t].link == l; ++t)
      (terms[t].seq < first_route ? service : arrivals) += terms[t].packets;
    for (; old != gq_.cend() && old->link < l; ++old) next.push_back(*old);
    double g = 0.0;
    if (old != gq_.cend() && old->link == l) g = (old++)->g;
    g = sanitize_queue_value(queueing::queue_step(g, service, arrivals));
    if (g != 0.0) next.push_back({l, g});
    ++stepped;
  }
  next.insert(next.end(), old, gq_.cend());
  gq_.swap(next);

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
  return stepped;
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
  // Stored as +0.0 for -0.0: advance() leaves an idle queue untouched, and
  // checkpoints must hold the same bytes a queue step would produce.
  const bool destination = model_->session(session).destination == node;
  q_[qi(node, session)] = destination || value == 0.0 ? 0.0 : value;
}

void NetworkState::set_g_queue(int tx, int rx, double value) {
  const int n = model_->num_nodes();
  GC_CHECK(value >= 0.0 && tx != rx && tx >= 0 && tx < n && rx >= 0 &&
           rx < n);
  // A G of +0.0 or -0.0 is no entry: advance() leaves an idle link's G
  // untouched, and checkpoints must hold what a queue step would produce.
  const std::int64_t l = li(tx, rx);
  const auto it = entry_at_or_after(gq_.begin(), gq_.end(), l);
  const bool present = it != gq_.end() && it->link == l;
  if (value == 0.0) {
    if (present) gq_.erase(it);
  } else if (present) {
    it->g = value;
  } else {
    gq_.insert(it, GEntry{l, value});
  }
}

void NetworkState::restore_g_entries(std::vector<GEntry> entries) {
  const std::int64_t n = model_->num_nodes();
  std::int64_t prev = -1;
  for (const GEntry& e : entries) {
    GC_CHECK_MSG(e.link > prev && e.link < n * n && e.link / n != e.link % n &&
                     e.g > 0.0,
                 "bad virtual queue entry at link " << e.link);
    prev = e.link;
  }
  gq_ = std::move(entries);
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

// Both sums walk q_ in (node, session) order; a destination's entry is
// +0.0, which leaves the non-negative sum unchanged.
double NetworkState::total_data_queue_bs() const {
  const auto end = q_.begin() + qi(model_->num_base_stations(), 0);
  return std::accumulate(q_.begin(), end, 0.0);
}

double NetworkState::total_data_queue_users() const {
  const auto begin = q_.begin() + qi(model_->num_base_stations(), 0);
  return std::accumulate(begin, q_.end(), 0.0);
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
  // The stored entries in link order, as a dense row-major sum would add
  // them: the absent links are +0.0, which leave the sum unchanged.
  double total = 0.0;
  for (const GEntry& e : gq_) total += e.g;
  return total;
}

}  // namespace gc::core
