// NetworkModel: the immutable description of one problem instance — who the
// nodes are, what spectrum and energy hardware they have, which sessions
// must be served — plus the derived constants the Lyapunov analysis uses
// (beta of Section IV-A, B of eq. (34), gamma_max of Section IV-B).
#pragma once

#include <memory>
#include <vector>

#include "core/traffic.hpp"
#include "core/types.hpp"
#include "energy/battery.hpp"
#include "energy/cost.hpp"
#include "energy/grid.hpp"
#include "energy/node_energy.hpp"
#include "energy/renewable.hpp"
#include "net/capacity.hpp"
#include "net/link_prune.hpp"
#include "net/spectrum.hpp"
#include "net/topology.hpp"

namespace gc::core {

struct NodeParams {
  energy::NodeEnergyParams energy;
  energy::BatteryParams battery;
  energy::GridParams grid;
  std::shared_ptr<const energy::RenewableModel> renewable;
  // Radios at this node. The paper assumes 1 (constraint (22)); more
  // radios generalize (22) to "at most R simultaneous activities", with
  // the per-band rules (20)/(21) — one activity per (node, band) — then
  // enforced explicitly (they are only implied by (22) when R = 1).
  int num_radios = 1;
};

struct ModelConfig {
  double slot_seconds = 60.0;
  double packet_bits = 1e5;  // delta
  // Architecture switches used by the Fig. 2(f) baselines:
  // multihop=false restricts links to direct base-station -> user hops.
  bool multihop = true;
  // renewables=false zeroes every renewable input regardless of the node's
  // renewable model ("w/o renewable energy" baselines).
  bool renewables = true;
  // Cyclic electricity-tariff multipliers (extension; see
  // energy/tariff.hpp): slot t pays tariff[t mod N] * f(P). Empty = flat.
  std::vector<double> tariff_multipliers;
  // PHY policy (extension). The paper's design point is MinPowerFixedRate:
  // Foschini–Miljanic minimal powers meeting the SINR threshold exactly,
  // every surviving link at the fixed spectral efficiency log2(1+Gamma)
  // (eq. (1)). MaxPowerAdaptiveRate is the classic alternative: every
  // transmitter at P_max, links below the threshold dropped, survivors
  // carrying the Shannon rate W log2(1+SINR) of their realized SINR —
  // more throughput for more transmit energy (bench/ablation_phy_policy).
  enum class PhyPolicy { MinPowerFixedRate, MaxPowerAdaptiveRate };
  PhyPolicy phy_policy = PhyPolicy::MinPowerFixedRate;
  // Time-varying session demand v_s(t) (core/traffic.hpp). Null keeps the
  // constant-rate model: sample_inputs leaves the demand vector empty and
  // nothing downstream changes.
  std::shared_ptr<const TrafficModel> traffic;
  // Exact radio-range link pruning (net/link_prune.hpp; docs/ALGORITHM.md
  // "Why range pruning is exact"): the scheduler's candidate scans skip
  // (tx, rx) pairs no shared band could close at tx's maximum transmit
  // power. Pruned pairs carry zero rate under every slot realization, so
  // no capacity is lost — but the schedule still changes: radios the
  // unpruned scheduler wastes on doomed links (power control deschedules
  // them) go to real links instead, which perturbs the whole trajectory.
  // Off by default so default configs stay bit-identical to the paper
  // reproduction; flip it on for large topologies (--link-prune on).
  bool link_prune = false;
};

class NetworkModel {
 public:
  NetworkModel(net::Topology topology, net::Spectrum spectrum,
               net::RadioParams radio, std::vector<NodeParams> nodes,
               std::vector<Session> sessions, energy::QuadraticCost cost,
               ModelConfig config);

  const net::Topology& topology() const { return topo_; }
  // Mutable access for mobility models (sim/mobility.hpp): positions and
  // gains may move between slots; every derived constant (beta, B,
  // gamma_max) is position-independent so nothing else needs recomputing.
  net::Topology& mutable_topology() { return topo_; }
  const net::Spectrum& spectrum() const { return spectrum_; }
  const net::RadioParams& radio() const { return radio_; }
  // The base (multiplier-1) cost function.
  const energy::QuadraticCost& cost() const { return cost_; }
  // The effective cost function in a given slot (base scaled by the
  // tariff); equals cost() under a flat tariff.
  energy::QuadraticCost cost_at(int slot) const;
  double tariff_multiplier(int slot) const;
  double max_tariff_multiplier() const { return max_tariff_; }
  const ModelConfig& config() const { return config_; }

  int num_nodes() const { return topo_.num_nodes(); }
  int num_base_stations() const { return topo_.num_base_stations(); }
  int num_sessions() const { return static_cast<int>(sessions_.size()); }
  int num_bands() const { return spectrum_.num_bands(); }

  const NodeParams& node(int i) const { return nodes_[check_node(i)]; }
  const Session& session(int s) const { return sessions_[check_session(s)]; }
  const std::vector<Session>& sessions() const { return sessions_; }

  // v_s(t): the slot's sampled demand when the inputs carry one
  // (time-varying traffic), else the session's constant demand.
  double demand_packets(int s, const SlotInputs& inputs) const {
    check_session(s);
    return inputs.session_demand_packets.empty()
               ? sessions_[s].demand_packets
               : inputs.session_demand_packets[s];
  }

  double slot_seconds() const { return config_.slot_seconds; }
  double packet_bits() const { return config_.packet_bits; }

  // Whether (tx -> rx) may ever carry traffic under the architecture.
  bool link_allowed(int tx, int rx) const;
  // Whether `node` is some session's destination.
  bool is_destination(int node) const {
    return is_destination_[check_node(node)] != 0;
  }

  // Range-pruned link neighborhood (ModelConfig::link_prune), or nullptr
  // when pruning is disabled. The map's tables are built on first call;
  // each call syncs it to the topology, which drops its cached rows after
  // mobility moved a node (Topology::version()), and the scans re-screen
  // only the rows they read. Not thread-safe: the map caches rows on
  // read, and the slot path that reads it runs on one thread.
  const net::LinkPruneMap* pruned_links() const;

  // Upper bound on W_m(t).
  double max_bandwidth_hz(int band) const;

  // c_ij^max * dt / delta: most packets link (i,j) could ever move in a
  // slot on ONE band, maximizing over the bands available at both ends (0
  // when the two nodes share no band or the link is not allowed).
  double max_link_packets(int tx, int rx) const;

  // Most packets the link can move using every radio/band combination the
  // endpoints could devote to it: min(radios, common bands) * best band.
  double max_link_packets_all_radios(int tx, int rx) const;

  int num_radios(int node) const { return nodes_[check_node(node)].num_radios; }

  // The most packets one link into `node` can move in a slot on one band:
  // max_link_packets(tx, node) maximized over every tx != node (taken per
  // node class, so O(classes^2) to build).
  double max_in_link_packets(int node) const {
    return max_in_link_packets_[check_node(node)];
  }

  // beta (Section IV-A): the largest max_link_packets_all_radios over
  // ordered node pairs (at least 1) — with several radios a link can move
  // more than the single-band c_ij^max * dt / delta in one slot.
  double beta() const { return beta_; }

  // The drift bound constant B of eq. (34).
  double drift_constant_B() const { return drift_b_; }

  // gamma_max: max of f' over attainable P(t) (sum of base-station p_max).
  double gamma_max() const { return gamma_max_; }
  double max_total_grid_j() const { return max_total_grid_j_; }

  // z_i(t) = x_i(t) - shift_j(i, V); shift = V*gamma_max + d_i^max.
  double shift_j(int node, double V) const {
    return V * gamma_max_ + nodes_[check_node(node)].battery.max_discharge_j;
  }

  // Samples one slot's randomness (bandwidths, renewables, connectivity).
  SlotInputs sample_inputs(int slot, Rng& rng) const;

 private:
  int check_node(int i) const {
    GC_CHECK_MSG(i >= 0 && i < num_nodes(), "bad node " << i);
    return i;
  }
  int check_session(int s) const {
    GC_CHECK_MSG(s >= 0 && s < num_sessions(), "bad session " << s);
    return s;
  }

  net::Topology topo_;
  net::Spectrum spectrum_;
  net::RadioParams radio_;
  std::vector<NodeParams> nodes_;
  std::vector<Session> sessions_;
  energy::QuadraticCost cost_;
  ModelConfig config_;
  // Lazy link-prune map (pruned_links()); mutable because building it is
  // observationally pure — the map is fully derived from topology/spectrum.
  mutable std::unique_ptr<net::LinkPruneMap> prune_;
  // 1 for nodes that are some session's destination.
  std::vector<char> is_destination_;
  std::vector<double> max_in_link_packets_;

  double beta_ = 0.0;
  double max_tariff_ = 1.0;
  double drift_b_ = 0.0;
  double gamma_max_ = 0.0;
  double max_total_grid_j_ = 0.0;
};

}  // namespace gc::core
