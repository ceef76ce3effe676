#include "sim/scenario.hpp"

#include "net/placement.hpp"
#include "obs/timer.hpp"

namespace gc::sim {

namespace {

// Builds the topology the spec asks for, consuming only `topo_rng`. The
// Paper+Uniform combination calls Topology::paper_layout with the same
// stream the pre-scenario code did, so default configs stay bit-identical.
net::Topology build_topology(const ScenarioConfig& c, Rng& topo_rng) {
  const TopologySpec& t = c.topology;
  if (t.layout == TopologySpec::Layout::Paper &&
      t.placement == TopologySpec::Placement::Uniform)
    return net::Topology::paper_layout(c.num_users, c.area_m, c.propagation,
                                       topo_rng);

  std::vector<net::Vec2> bs;
  double width = c.area_m, height = c.area_m;
  if (t.layout == TopologySpec::Layout::Paper) {
    bs.push_back({c.area_m / 4.0, c.area_m / 4.0});
    bs.push_back({3.0 * c.area_m / 4.0, c.area_m / 4.0});
  } else {
    GC_CHECK_MSG(t.rows >= 1 && t.cols >= 1 && t.cell_radius_m > 0.0,
                 "hex grid needs rows >= 1, cols >= 1, cell_radius_m > 0");
    bs = net::hex_grid_centers({t.rows, t.cols, t.cell_radius_m}, &width,
                               &height);
  }

  std::vector<net::Vec2> users;
  switch (t.placement) {
    case TopologySpec::Placement::Uniform:
      users = net::place_uniform(c.num_users, width, height, topo_rng);
      break;
    case TopologySpec::Placement::Poisson:
      users = net::place_poisson(static_cast<double>(c.num_users), width,
                                 height, topo_rng);
      break;
    case TopologySpec::Placement::Clustered:
      GC_CHECK_MSG(t.hotspots >= 1 && t.hotspot_sigma_m > 0.0 &&
                       t.hotspot_fraction >= 0.0 && t.hotspot_fraction <= 1.0,
                   "clustered placement needs hotspots >= 1, sigma > 0, "
                   "fraction in [0,1]");
      users = net::place_clustered(c.num_users, t.hotspots, t.hotspot_sigma_m,
                                   t.hotspot_fraction, width, height,
                                   topo_rng);
      break;
  }
  GC_CHECK_MSG(!users.empty(),
               "placement realized 0 users (Poisson with a small mean?); "
               "sessions need at least one destination");
  return net::Topology(std::move(bs), std::move(users), c.propagation);
}

std::shared_ptr<const energy::RenewableModel> build_renewable(
    const ScenarioConfig& c, double peak_w) {
  const RenewableSpec& r = c.renewable;
  switch (r.kind) {
    case RenewableSpec::Kind::Solar:
      return std::make_shared<energy::SolarRenewable>(
          peak_w, c.slot_seconds, r.slots_per_day, r.clearness_lo);
    case RenewableSpec::Kind::Wind:
      return std::make_shared<energy::WindRenewable>(
          peak_w, c.slot_seconds, r.weibull_shape, r.rated_speed_ratio);
    case RenewableSpec::Kind::Uniform:
      break;
  }
  return std::make_shared<energy::UniformRenewable>(peak_w, c.slot_seconds);
}

std::shared_ptr<const core::TrafficModel> build_traffic(
    const ScenarioConfig& c) {
  const TrafficSpec& t = c.traffic;
  switch (t.kind) {
    case TrafficSpec::Kind::Diurnal:
      return std::make_shared<core::DiurnalTraffic>(t.slots_per_day,
                                                    t.amplitude, t.peak_phase);
    case TrafficSpec::Kind::Bursty:
      return std::make_shared<core::BurstyTraffic>(
          t.on_mult, t.off_mult, t.p_on_off, t.p_off_on, t.block_slots);
    case TrafficSpec::Kind::FlashCrowd:
      return std::make_shared<core::FlashCrowdTraffic>(
          t.start_slot, t.duration_slots, t.spike_multiplier);
    case TrafficSpec::Kind::Constant:
      break;
  }
  return nullptr;  // constant-rate: the pre-scenario code path
}

// Tier covering BS index `i`, or nullptr past the tiers (default model).
const policy::TierSpec* tier_of(const std::vector<policy::TierSpec>& tiers,
                                int i) {
  int begin = 0;
  for (const auto& t : tiers) {
    if (i < begin + t.count) return &t;
    begin += t.count;
  }
  return nullptr;
}

}  // namespace

ScenarioConfig ScenarioConfig::tiny() {
  ScenarioConfig c;
  c.num_users = 5;
  c.area_m = 800.0;
  c.spectrum.num_random_bands = 2;
  c.num_sessions = 2;
  return c;
}

core::NetworkModel ScenarioConfig::build() const {
  GC_CHECK(num_users >= 1);
  GC_CHECK(num_sessions >= 1);
  // Spans the whole build, including the model's constants (the
  // NetworkModel constructor runs before this span closes).
  obs::Span build_span("setup.model_build");
  Rng master(seed);

  Rng topo_rng = master.fork(0x7001);
  obs::Span topo_span("setup.topology");
  net::Topology topo = build_topology(*this, topo_rng);
  topo_span.stop();

  int tier_total = 0;
  for (const auto& t : bs_tiers) tier_total += t.count;
  GC_CHECK_MSG(tier_total <= topo.num_base_stations(),
               "bs.tiers counts sum to " << tier_total << " but the topology"
               << " has " << topo.num_base_stations() << " base stations");

  Rng spec_rng = master.fork(0x7002);
  net::Spectrum spec(spectrum, topo.num_nodes(), topo.num_base_stations(),
                     spec_rng);

  std::vector<core::NodeParams> nodes;
  nodes.reserve(static_cast<std::size_t>(topo.num_nodes()));
  const auto bs_renewable = build_renewable(*this, bs_renewable_peak_w);
  const auto user_renewable = build_renewable(*this, user_renewable_peak_w);
  for (int i = 0; i < topo.num_nodes(); ++i) {
    core::NodeParams np;
    if (topo.is_base_station(i)) {
      if (const policy::TierSpec* t = tier_of(bs_tiers, i))
        np.energy = {t->const_w, t->idle_w, t->recv_w, t->tx_max_w};
      else
        np.energy = {bs_const_w, bs_idle_w, bs_recv_w, bs_tx_max_w};
      np.battery = {bs_batt_capacity_j, bs_batt_charge_j, bs_batt_discharge_j,
                    bs_batt_initial_frac * bs_batt_capacity_j};
      np.grid = {true, 0.0, bs_grid_max_j};
      np.renewable = bs_renewable;
      np.num_radios = bs_radios;
    } else {
      np.energy = {user_const_w, user_idle_w, user_recv_w, user_tx_max_w};
      np.battery = {user_batt_capacity_j, user_batt_charge_j,
                    user_batt_discharge_j,
                    user_batt_initial_frac * user_batt_capacity_j};
      np.grid = {false, user_connect_probability, user_grid_max_j};
      np.renewable = user_renewable;
      np.num_radios = user_radios;
    }
    nodes.push_back(std::move(np));
  }

  // Session destinations: distinct random users (wrapping if S > users).
  // Poisson placement realizes its own user count, so destinations come
  // from the built topology, not from num_users.
  Rng sess_rng = master.fork(0x7003);
  const int users_n = topo.num_users();
  std::vector<int> users(static_cast<std::size_t>(users_n));
  for (int u = 0; u < users_n; ++u)
    users[u] = topo.num_base_stations() + u;
  // Fisher-Yates shuffle for distinct destinations.
  for (int u = users_n - 1; u > 0; --u)
    std::swap(users[u],
              users[sess_rng.uniform_int(0, u)]);
  const auto traffic_model = build_traffic(*this);
  std::vector<core::Session> sessions;
  const double demand = demand_packets();
  // With time-varying traffic the admission cap scales with the model's
  // worst-case factor, so spikes remain admissible under the same
  // admit_factor headroom.
  const double admit_scale =
      traffic_model != nullptr ? traffic_model->max_factor() : 1.0;
  for (int s = 0; s < num_sessions; ++s)
    sessions.push_back(
        core::Session{users[s % users_n], demand,
                      std::floor(admit_factor * admit_scale * demand)});

  core::ModelConfig mc;
  mc.slot_seconds = slot_seconds;
  mc.packet_bits = packet_bits;
  mc.multihop = multihop;
  mc.renewables = renewables;
  mc.tariff_multipliers = tariff_multipliers;
  mc.phy_policy = phy_policy;
  mc.traffic = traffic_model;
  mc.link_prune = link_prune;

  return core::NetworkModel(
      std::move(topo), std::move(spec), radio, std::move(nodes),
      std::move(sessions), energy::QuadraticCost(cost_a, cost_b, cost_c), mc);
}

policy::SleepSetup ScenarioConfig::sleep_setup() const {
  // BS count is fixed by the layout, never by the RNG, so it can be
  // derived without building the model.
  const int n_bs = topology.layout == TopologySpec::Layout::HexGrid
                       ? topology.rows * topology.cols
                       : 2;
  int tier_total = 0;
  for (const auto& t : bs_tiers) tier_total += t.count;
  GC_CHECK_MSG(tier_total <= n_bs,
               "bs.tiers counts sum to " << tier_total << " but the topology"
               << " has " << n_bs << " base stations");
  policy::SleepSetup setup;
  setup.config = bs_sleep;
  setup.bs.assign(static_cast<std::size_t>(n_bs), policy::BsSleepParams{});
  for (int i = 0; i < n_bs; ++i)
    if (const policy::TierSpec* t = tier_of(bs_tiers, i))
      setup.bs[static_cast<std::size_t>(i)] = {t->sleep_power_w,
                                               t->wake_latency_slots,
                                               t->sleep_switch_j,
                                               t->wake_switch_j, t->can_sleep};
  return setup;
}

}  // namespace gc::sim
