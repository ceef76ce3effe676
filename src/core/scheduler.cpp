#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lp/simplex.hpp"
#include "net/power_control.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace gc::core {

namespace {

// S1 observability: how many LP relaxation passes SF needs, how often it
// falls back to rounding a fractional alpha, how much work the fill-in pass
// adds, and how many links power control deschedules.
struct SchedulerMetrics {
  obs::Counter& lp_passes = obs::registry().counter("sched.sf_lp_passes");
  obs::Counter& roundings = obs::registry().counter("sched.sf_roundings");
  obs::Counter& primary = obs::registry().counter("sched.primary_links");
  obs::Counter& fill_in = obs::registry().counter("sched.fill_in_links");
  obs::Counter& descheduled =
      obs::registry().counter("sched.power_descheduled_links");
  // The cluster split: clusters solved per slot and a histogram of
  // candidates per cluster (the largest is S1's slowest LP series).
  obs::Counter& clusters = obs::registry().counter("sched.sf_clusters");
  obs::Histogram& cluster_cands =
      obs::registry().histogram("sched.sf_cluster_candidates");
};

SchedulerMetrics& sched_metrics() {
  static thread_local SchedulerMetrics m;
  return m;
}

// Price of the energy the base-station endpoints of (tx, rx, band) would
// spend if activated: noise-limited minimal transmit power (the
// interference-free floor of constraint (24)) plus the receiver's constant
// draw, over one slot, times the marginal grid price. Zero when
// energy-aware scheduling is off (price = 0) or both endpoints are users
// (their grid energy never enters f(P), Sec. II-E).
double activation_penalty(const NetworkModel& model, int tx, int rx,
                          double bandwidth_hz, double price) {
  if (price <= 0.0) return 0.0;
  double energy_j = 0.0;
  if (model.topology().is_base_station(tx)) {
    const double p_min = model.radio().sinr_threshold *
                         model.radio().noise_psd_w_per_hz * bandwidth_hz /
                         model.topology().gain(tx, rx);
    energy_j += p_min * model.slot_seconds();
  }
  if (model.topology().is_base_station(rx))
    energy_j += model.node(rx).energy.recv_power_w * model.slot_seconds();
  return price * energy_j;
}

// Tracks the generalized radio constraints: at most num_radios(i)
// simultaneous activities per node (eq. (22) with R radios), and at most
// one activity per (node, band) (eqs. (20)/(21), which R = 1 makes
// implicit). Every entry belongs to one node, so jobs that own disjoint
// node sets may take from one budget concurrently.
class RadioUsage {
 public:
  explicit RadioUsage(const NetworkModel& model)
      : model_(&model),
        used_(static_cast<std::size_t>(model.num_nodes()), 0),
        band_used_(static_cast<std::size_t>(model.num_nodes()) *
                       model.num_bands(),
                   0) {}

  bool can_take(int tx, int rx, int band) const {
    return used_[tx] < model_->num_radios(tx) &&
           used_[rx] < model_->num_radios(rx) && !band_used_[bi(tx, band)] &&
           !band_used_[bi(rx, band)];
  }
  void take(int tx, int rx, int band) {
    GC_CHECK(can_take(tx, rx, band));
    ++used_[tx];
    ++used_[rx];
    band_used_[bi(tx, band)] = 1;
    band_used_[bi(rx, band)] = 1;
  }
  void release(int tx, int rx, int band) {
    --used_[tx];
    --used_[rx];
    band_used_[bi(tx, band)] = 0;
    band_used_[bi(rx, band)] = 0;
  }
  bool node_saturated(int node) const {
    return used_[node] >= model_->num_radios(node);
  }
  int spare(int node) const { return model_->num_radios(node) - used_[node]; }

 private:
  std::size_t bi(int node, int band) const {
    GC_CHECK_MSG(band >= 0 && band < model_->num_bands(),
                 "bad band " << band << " at node " << node);
    return static_cast<std::size_t>(node) * model_->num_bands() + band;
  }
  const NetworkModel* model_;
  std::vector<int> used_;
  std::vector<char> band_used_;
};

// What one band offers this slot, computed once per scan or power-control
// pass rather than once per link: its nominal capacity at the SINR
// threshold and the whole packets that capacity carries in one slot.
struct BandCapacity {
  double bps = 0.0;
  double whole_packets = 0.0;  // floor(bps * dt / delta)
};

std::vector<BandCapacity> band_capacities(const NetworkModel& model,
                                          const SlotInputs& inputs) {
  std::vector<BandCapacity> out;
  for (int m = 0; m < model.num_bands(); ++m) {
    const double bps = net::nominal_capacity_bps(
        inputs.bandwidth_hz[m], model.radio().sinr_threshold);
    out.push_back(BandCapacity{
        bps, std::floor(bps * model.slot_seconds() / model.packet_bits())});
  }
  return out;
}

ScheduledLink to_link(const CandidateLinkBand& c) {
  return ScheduledLink{c.tx, c.rx, c.band, 0.0, c.capacity_bps};
}

// Visits every receiver i's candidate scan considers, in ascending order.
// Range pruning (net/link_prune.hpp): the neighbor lists are ascending, so
// the pruned scan visits surviving pairs in the order the dense scan would
// — candidate order (and everything downstream) is unchanged.
template <class F>
void for_each_rx(const NetworkModel& model, int i, F&& scan_rx) {
  if (const net::LinkPruneMap* prune = model.pruned_links()) {
    for (int j : prune->out_neighbors(i)) scan_rx(j);
  } else {
    for (int j = 0; j < model.num_nodes(); ++j)
      if (j != i) scan_rx(j);
  }
}

// The fill-in scan (see build_fill_in_candidates) against the radio budget
// the schedule so far has consumed.
std::vector<CandidateLinkBand> fill_in_candidates(
    const NetworkState& state, const SlotInputs& inputs,
    const RadioUsage& usage, double marginal_energy_price) {
  const auto& model = state.model();
  const int n = model.num_nodes();
  const std::vector<BandCapacity> bands = band_capacities(model, inputs);

  // Range pruning: beyond shrinking the scan, dropping out-of-range pairs
  // here IMPROVES the schedule — an unpruned infeasible fill-in link would
  // occupy two radios until power control deschedules it, crowding out
  // feasible links (docs/ALGORITHM.md "Why range pruning is exact").
  std::vector<CandidateLinkBand> out;
  std::vector<int> live;  // sessions transmitter i holds packets for
  for (int i = 0; i < n; ++i) {
    if (usage.node_saturated(i) || inputs.node_is_inactive(i)) continue;
    // Only a backlogged session can make a differential positive: with
    // q(i,s) = 0 it is -q(j,s) - beta*h <= 0 (docs/ALGORITHM.md "Why the
    // fill-in scan visits only backlogged sessions").
    live.clear();
    for (int s = 0; s < model.num_sessions(); ++s)
      if (model.session(s).destination != i && state.q(i, s) > 0.0)  // (17)
        live.push_back(s);
    if (live.empty()) continue;
    for_each_rx(model, i, [&](int j) {
      if (usage.node_saturated(j) || !model.link_allowed(i, j)) return;
      if (inputs.node_is_inactive(j) || inputs.link_is_faded(i, j, n)) return;
      // Best Psi3 differential any session could realize on (i, j).
      const double bh = model.beta() * state.h(i, j);
      double best_diff = 0.0;
      for (int s : live)
        best_diff = std::max(best_diff, state.q(i, s) - state.q(j, s) - bh);
      if (best_diff <= 0.0) return;
      // A delivery link ends at some session's destination: exempt from
      // the energy penalty, since (18) makes delivery an obligation rather
      // than an optimization choice.
      const bool delivery_link = model.is_destination(j);
      for (int m = 0; m < model.num_bands(); ++m) {
        if (bands[m].whole_packets < 1.0) continue;  // not a whole packet
        if (!model.spectrum().link_band_ok(i, j, m)) continue;
        if (!usage.can_take(i, j, m)) continue;
        const double penalty =
            delivery_link ? 0.0
                          : activation_penalty(model, i, j,
                                               inputs.bandwidth_hz[m],
                                               marginal_energy_price);
        const double weight = best_diff * bands[m].whole_packets - penalty;
        if (weight <= 0.0) continue;
        out.push_back(CandidateLinkBand{i, j, m, bands[m].bps, weight});
      }
    });
  }
  return out;
}

// Weight-sorted greedy over an explicit candidate list, taking from the
// radio budget `usage` the schedule so far has left.
void greedy_fill(std::vector<CandidateLinkBand> cands, RadioUsage& usage,
                 std::vector<ScheduledLink>& schedule) {
  std::sort(cands.begin(), cands.end(),
            [](const CandidateLinkBand& a, const CandidateLinkBand& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (a.tx != b.tx) return a.tx < b.tx;
              if (a.rx != b.rx) return a.rx < b.rx;
              return a.band < b.band;
            });
  for (const auto& c : cands) {
    if (!usage.can_take(c.tx, c.rx, c.band)) continue;
    usage.take(c.tx, c.rx, c.band);
    schedule.push_back(to_link(c));
  }
}

// Psi3-aware fill-in over radios the primary pass left idle in `usage`
// (see build_fill_in_candidates for why the paper's S1 alone deadlocks).
void fill_in_pass(const NetworkState& state, const SlotInputs& inputs,
                  double marginal_energy_price, RadioUsage& usage,
                  std::vector<ScheduledLink>& schedule) {
  obs::Span span("s1.fill_in", state.slot());
  const std::size_t before = schedule.size();
  greedy_fill(
      fill_in_candidates(state, inputs, usage, marginal_energy_price), usage,
      schedule);
  sched_metrics().fill_in.add(static_cast<double>(schedule.size() - before));
}

}  // namespace

std::vector<CandidateLinkBand> build_candidates(const NetworkState& state,
                                                const SlotInputs& inputs) {
  obs::Span span("s1.candidates", state.slot());
  const auto& model = state.model();
  const int n = model.num_nodes();
  const double pkts_per_bps = model.slot_seconds() / model.packet_bits();
  const std::vector<BandCapacity> bands = band_capacities(model, inputs);
  std::vector<CandidateLinkBand> out;
  for (int i = 0; i < n; ++i) {
    if (inputs.node_is_inactive(i)) continue;  // down or asleep: no radio
    for_each_rx(model, i, [&](int j) {
      if (!model.link_allowed(i, j)) return;
      if (inputs.node_is_inactive(j) || inputs.link_is_faded(i, j, n)) return;
      const double h = state.h(i, j);
      if (h <= 0.0) return;  // SF fixes alpha = 0 when H_ij = 0
      for (int m = 0; m < model.num_bands(); ++m) {
        const double c = bands[m].bps;
        if (c <= 0.0 || !model.spectrum().link_band_ok(i, j, m)) continue;
        // Exact Psi1-hat drain (beta * H * cap_packets). Primary
        // candidates are never energy-penalized: a positive H means
        // packets were already committed to this link and (27) obliges
        // serving them.
        const double weight = model.beta() * h * c * pkts_per_bps;
        if (weight <= 0.0) continue;
        out.push_back(CandidateLinkBand{i, j, m, c, weight});
      }
    });
  }
  return out;
}

std::vector<CandidateLinkBand> build_fill_in_candidates(
    const NetworkState& state, const SlotInputs& inputs,
    const std::vector<ScheduledLink>& already_scheduled,
    double marginal_energy_price) {
  RadioUsage usage(state.model());
  for (const auto& s : already_scheduled) usage.take(s.tx, s.rx, s.band);
  return fill_in_candidates(state, inputs, usage, marginal_energy_price);
}

namespace {

// One SF relax-round-compact series over `cands`: appends the links it
// fixes to `schedule`, consuming `usage`. Every pass solves cold through
// `ws`, which forwards each solve's statistics to its sink.
void sf_series(const NetworkState& state,
               std::vector<CandidateLinkBand> cands, RadioUsage& usage,
               const lp::Options& lp_options, lp::Workspace& ws,
               std::vector<ScheduledLink>& schedule) {
  const auto& model = state.model();
  while (!cands.empty()) {
    sched_metrics().lp_passes.add();
    // LP relaxation: maximize sum w_c alpha_c s.t. the remaining radio
    // budget per node and one activity per (node, band).
    lp::Model m;
    for (const auto& c : cands) m.add_variable(0.0, 1.0, -c.weight);
    std::vector<int> node_row(static_cast<std::size_t>(model.num_nodes()),
                              -1);
    std::vector<int> band_row(
        static_cast<std::size_t>(model.num_nodes()) * model.num_bands(), -1);
    for (std::size_t v = 0; v < cands.size(); ++v) {
      for (int node : {cands[v].tx, cands[v].rx}) {
        if (node_row[node] < 0)
          node_row[node] =
              m.add_row(lp::Sense::LessEqual, usage.spare(node));
        m.set_coeff(node_row[node], static_cast<int>(v), 1.0);
        const std::size_t bi =
            static_cast<std::size_t>(node) * model.num_bands() +
            cands[v].band;
        if (band_row[bi] < 0)
          band_row[bi] = m.add_row(lp::Sense::LessEqual, 1.0);
        m.set_coeff(band_row[bi], static_cast<int>(v), 1.0);
      }
    }
    const lp::Solution sol = lp::solve(m, lp_options, ws);
    GC_CHECK_MSG(sol.status == lp::Status::Optimal,
                 "SF relaxation not optimal at slot "
                     << state.slot() << ": " << lp::to_string(sol.status));

    // Fix every alpha already at 1; if none, round the largest fractional.
    std::vector<std::size_t> to_fix;
    for (std::size_t v = 0; v < cands.size(); ++v)
      if (sol.x[v] >= 1.0 - 1e-6) to_fix.push_back(v);
    if (to_fix.empty()) {
      std::size_t best = 0;
      for (std::size_t v = 1; v < cands.size(); ++v)
        if (sol.x[v] > sol.x[best]) best = v;
      to_fix.push_back(best);
      sched_metrics().roundings.add();
    }

    for (std::size_t v : to_fix) {
      const auto& f = cands[v];
      // Two alpha = 1 never conflict in a feasible LP point, but a rounded
      // fractional may conflict with one fixed this same round.
      if (!usage.can_take(f.tx, f.rx, f.band)) continue;
      usage.take(f.tx, f.rx, f.band);
      schedule.push_back(to_link(f));
    }
    // Compact the surviving candidates for the next (strictly smaller)
    // relaxation.
    std::size_t kept = 0;
    for (const auto& c : cands)
      if (usage.can_take(c.tx, c.rx, c.band)) cands[kept++] = c;
    cands.resize(kept);
  }
}

}  // namespace

std::vector<ScheduledLink> sf_schedule(
    const NetworkState& state, const SlotInputs& inputs, bool fill_in,
    double marginal_energy_price, const lp::Options& lp_options,
    lp::SolveStatsSink* stats_sink) {
  const auto& model = state.model();
  const std::vector<CandidateLinkBand> cands =
      build_candidates(state, inputs);
  obs::Span sf_span("s1.sf", state.slot());

  // Connected components of the endpoint-sharing graph via union-find,
  // ordered by their smallest member node so cluster identity is a pure
  // function of the candidate set.
  const int n = model.num_nodes();
  std::vector<int> parent(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) parent[i] = i;
  const auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& c : cands) {
    const int a = find(c.tx), b = find(c.rx);
    // Union by smaller index: the root IS the smallest member, giving the
    // deterministic cluster order for free.
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  // Cluster index per root node: numbering the roots in ascending node
  // order is the cluster order.
  std::vector<int> cluster_of(static_cast<std::size_t>(n), -1);
  for (const auto& c : cands) cluster_of[find(c.tx)] = 0;
  std::size_t k = 0;
  for (int& id : cluster_of)
    if (id >= 0) id = static_cast<int>(k++);
  std::vector<std::vector<CandidateLinkBand>> cluster_cands(k);
  for (const auto& c : cands)
    cluster_cands[cluster_of[find(c.tx)]].push_back(c);

  sched_metrics().clusters.add(static_cast<double>(k));
  for (const auto& cc : cluster_cands)
    sched_metrics().cluster_cands.observe(static_cast<double>(cc.size()));

  // One SF series per cluster, in cluster order, all taking from the
  // slot's one radio budget. Clusters are node-disjoint, so each series
  // reads and writes only its own nodes' entries and sees exactly the
  // budget the joint series would.
  RadioUsage usage(model);
  std::vector<ScheduledLink> schedule;
  for (auto& cc : cluster_cands) {
    lp::Workspace ws;
    ws.set_stats_context("s1");
    ws.set_stats_sink(stats_sink);
    sf_series(state, std::move(cc), usage, lp_options, ws, schedule);
  }
  sf_span.stop();
  sched_metrics().primary.add(static_cast<double>(schedule.size()));
  if (fill_in)
    fill_in_pass(state, inputs, marginal_energy_price, usage, schedule);
  return schedule;
}

std::vector<ScheduledLink> sequential_fix_schedule(
    const NetworkState& state, const SlotInputs& inputs, bool fill_in,
    double marginal_energy_price, const lp::Options& lp_options,
    lp::Workspace* workspace, std::vector<std::uint64_t>* /*unused*/) {
  return sf_schedule(state, inputs, fill_in, marginal_energy_price,
                     lp_options,
                     workspace != nullptr ? workspace->stats_sink() : nullptr);
}

std::vector<ScheduledLink> sequential_fix_schedule_clustered(
    const NetworkState& state, const SlotInputs& inputs,
    util::ThreadPool& /*pool*/, bool fill_in, double marginal_energy_price,
    const lp::Options& lp_options, lp::SolveStatsSink* stats_sink) {
  return sf_schedule(state, inputs, fill_in, marginal_energy_price,
                     lp_options, stats_sink);
}

std::vector<ScheduledLink> greedy_schedule(const NetworkState& state,
                                           const SlotInputs& inputs,
                                           bool fill_in,
                                           double marginal_energy_price) {
  RadioUsage usage(state.model());
  std::vector<ScheduledLink> schedule;
  greedy_fill(build_candidates(state, inputs), usage, schedule);
  sched_metrics().primary.add(static_cast<double>(schedule.size()));
  if (fill_in)
    fill_in_pass(state, inputs, marginal_energy_price, usage, schedule);
  return schedule;
}

namespace {

void exhaustive_rec(const std::vector<CandidateLinkBand>& cands,
                    std::size_t idx, RadioUsage& usage,
                    std::vector<std::size_t>& chosen, double weight,
                    std::vector<std::size_t>& best_chosen,
                    double& best_weight) {
  if (idx == cands.size()) {
    if (weight > best_weight) {
      best_weight = weight;
      best_chosen = chosen;
    }
    return;
  }
  // Upper bound: all remaining weights; prune when it cannot beat the best.
  double remaining = 0.0;
  for (std::size_t v = idx; v < cands.size(); ++v)
    remaining += cands[v].weight;
  if (weight + remaining <= best_weight) return;

  const auto& c = cands[idx];
  if (usage.can_take(c.tx, c.rx, c.band)) {
    usage.take(c.tx, c.rx, c.band);
    chosen.push_back(idx);
    exhaustive_rec(cands, idx + 1, usage, chosen, weight + c.weight,
                   best_chosen, best_weight);
    chosen.pop_back();
    usage.release(c.tx, c.rx, c.band);
  }
  exhaustive_rec(cands, idx + 1, usage, chosen, weight, best_chosen,
                 best_weight);
}

}  // namespace

std::vector<ScheduledLink> exhaustive_schedule(const NetworkState& state,
                                               const SlotInputs& inputs) {
  std::vector<CandidateLinkBand> cands = build_candidates(state, inputs);
  GC_CHECK_MSG(cands.size() <= 24,
               "exhaustive scheduler is for small instances only ("
                   << cands.size() << " candidates)");
  RadioUsage usage(state.model());
  std::vector<std::size_t> chosen, best_chosen;
  double best_weight = -1.0;
  exhaustive_rec(cands, 0, usage, chosen, 0.0, best_chosen, best_weight);
  std::vector<ScheduledLink> schedule;
  for (std::size_t v : best_chosen) schedule.push_back(to_link(cands[v]));
  return schedule;
}

double schedule_weight(const NetworkState& state,
                       const std::vector<ScheduledLink>& schedule,
                       const SlotInputs& inputs) {
  const std::vector<BandCapacity> bands =
      band_capacities(state.model(), inputs);
  double total = 0.0;
  for (const auto& s : schedule)
    total += state.h(s.tx, s.rx) * bands[s.band].bps;
  return total;
}

namespace {

// Removes link v from a K x K net::band_gain_table in place: what remains
// is the table of the other links, in order, without recomputing a gain.
void erase_table_link(std::vector<double>& gain, std::size_t n,
                      std::size_t v) {
  std::size_t out = 0;
  for (std::size_t l = 0; l < n; ++l) {
    if (l == v) continue;
    for (std::size_t k = 0; k < n; ++k)
      if (k != v) gain[out++] = gain[l * n + k];
  }
  gain.resize(out);
}

// MaxPowerAdaptiveRate: every transmitter at P_max; links whose realized
// SINR clears the threshold carry the Shannon rate of that SINR, the rest
// are dropped (capacity 0 per eq. (1)). Dropping a link only raises the
// SINR of the others, so one pass from the weakest link up converges.
void assign_powers_max_adaptive(const NetworkModel& model,
                                const SlotInputs& inputs, int band,
                                std::vector<std::size_t> on_band,
                                const std::vector<ScheduledLink>& schedule,
                                std::vector<ScheduledLink>& surviving) {
  const double w = inputs.bandwidth_hz[band];
  std::vector<net::Transmission> txs;
  txs.reserve(on_band.size());
  for (std::size_t idx : on_band) {
    const auto& s = schedule[idx];
    txs.push_back(net::Transmission{
        s.tx, s.rx, model.node(s.tx).energy.max_tx_power_w});
  }
  std::vector<double> gain = net::band_gain_table(model.topology(), txs);
  while (!txs.empty()) {
    // Find the weakest link; if it clears the threshold, everyone does.
    double worst = 0.0;
    std::size_t worst_k = 0;
    std::vector<double> sinrs(txs.size());
    for (std::size_t k = 0; k < txs.size(); ++k) {
      sinrs[k] = net::sinr(gain, txs, k, w, model.radio());
      if (k == 0 || sinrs[k] < worst) {
        worst = sinrs[k];
        worst_k = k;
      }
    }
    if (worst >= model.radio().sinr_threshold) {
      for (std::size_t k = 0; k < txs.size(); ++k) {
        ScheduledLink s = schedule[on_band[k]];
        s.power_w = txs[k].power_w;
        s.capacity_bps = w * std::log2(1.0 + sinrs[k]);
        s.capacity_packets = std::floor(
            s.capacity_bps * model.slot_seconds() / model.packet_bits());
        surviving.push_back(s);
      }
      return;
    }
    erase_table_link(gain, txs.size(), worst_k);
    txs.erase(txs.begin() + static_cast<long>(worst_k));
    on_band.erase(on_band.begin() + static_cast<long>(worst_k));
  }
}

}  // namespace

void assign_powers(const NetworkModel& model, const SlotInputs& inputs,
                   std::vector<ScheduledLink>& schedule) {
  const std::vector<BandCapacity> bands = band_capacities(model, inputs);
  std::vector<ScheduledLink> surviving;
  for (int band = 0; band < model.num_bands(); ++band) {
    std::vector<std::size_t> on_band;
    for (std::size_t i = 0; i < schedule.size(); ++i)
      if (schedule[i].band == band) on_band.push_back(i);
    if (on_band.empty()) continue;

    if (model.config().phy_policy ==
        ModelConfig::PhyPolicy::MaxPowerAdaptiveRate) {
      assign_powers_max_adaptive(model, inputs, band, std::move(on_band),
                                 schedule, surviving);
      continue;
    }

    // Deschedule the violating link and retry until feasible; each retry
    // removes one link so this terminates. One gain table serves every
    // retry.
    std::vector<net::CoBandLink> links;
    links.reserve(on_band.size());
    for (std::size_t idx : on_band) {
      const auto& s = schedule[idx];
      links.push_back(net::CoBandLink{
          s.tx, s.rx, model.node(s.tx).energy.max_tx_power_w});
    }
    std::vector<double> gain = net::band_gain_table(model.topology(), links);
    while (!links.empty()) {
      const auto pc = net::solve_min_powers(
          gain, links, inputs.bandwidth_hz[band], model.radio());
      if (pc.feasible) {
        for (std::size_t k = 0; k < links.size(); ++k) {
          ScheduledLink s = schedule[on_band[k]];
          s.power_w = pc.powers_w[k];
          s.capacity_bps = bands[band].bps;
          s.capacity_packets = bands[band].whole_packets;
          surviving.push_back(s);
        }
        break;
      }
      GC_CHECK(pc.violating_link >= 0);
      const auto v = static_cast<std::size_t>(pc.violating_link);
      erase_table_link(gain, links.size(), v);
      links.erase(links.begin() + static_cast<long>(v));
      on_band.erase(on_band.begin() + static_cast<long>(v));
    }
  }
  sched_metrics().descheduled.add(
      static_cast<double>(schedule.size() - surviving.size()));
  schedule = std::move(surviving);
}

}  // namespace gc::core
