#include "fault/fault_schedule.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace gc::fault {

namespace {

// Fault-injection observability: node-slots spent in each fault state plus
// aggregate event activity. Bumped by apply_slot_faults as faults land.
struct FaultMetrics {
  obs::Counter& events = obs::registry().counter("fault.active_events");
  obs::Counter& node_down = obs::registry().counter("fault.node_down_slots");
  obs::Counter& blackout =
      obs::registry().counter("fault.renewable_blackout_slots");
  obs::Counter& grid = obs::registry().counter("fault.grid_outage_slots");
  obs::Counter& link = obs::registry().counter("fault.link_fade_slots");
  obs::Counter& spike = obs::registry().counter("fault.price_spike_slots");
  obs::Counter& fade_j = obs::registry().counter("fault.battery_fade_j");
};

FaultMetrics& metrics() {
  static thread_local FaultMetrics m;
  return m;
}

// Stable per-event sub-seed so draws for different events never collide
// even under the same base seed (SplitMix64's additive constant).
std::uint64_t event_seed(std::uint64_t seed, std::size_t event_idx) {
  return seed + 0x9E3779B97F4A7C15ull * (event_idx + 1);
}

// Indexed by FaultEvent::Kind: the spec's "kind" names.
constexpr const char* kKindNames[] = {
    "node_outage", "renewable_blackout", "grid_outage", "price_spike",
    "battery_fade", "link_fade", "process_kill"};

}  // namespace

const char* to_string(FaultEvent::Kind k) {
  return kKindNames[static_cast<int>(k)];
}

FaultSchedule::FaultSchedule(int num_nodes, std::uint64_t seed)
    : num_nodes_(num_nodes), seed_(seed) {
  GC_CHECK(num_nodes >= 1);
}

void FaultSchedule::add(const FaultEvent& event) {
  const auto in_range = [&](int node) {
    return node >= 0 && node < num_nodes_;
  };
  GC_CHECK_MSG(event.duration >= 1, "fault window needs duration >= 1");
  GC_CHECK_MSG(event.start >= 0 ||
                   (event.probability > 0.0 && event.probability <= 1.0),
               "fault event needs start >= 0 or probability in (0, 1]");
  switch (event.kind) {
    case FaultEvent::Kind::NodeOutage:
      GC_CHECK_MSG(in_range(event.node), "node_outage needs a valid node");
      break;
    case FaultEvent::Kind::RenewableBlackout:
    case FaultEvent::Kind::GridOutage:
      GC_CHECK_MSG(event.node == -1 || in_range(event.node),
                   to_string(event.kind) << " node out of range");
      break;
    case FaultEvent::Kind::PriceSpike:
      GC_CHECK_MSG(event.magnitude >= 0.0,
                   "price_spike magnitude must be >= 0");
      break;
    case FaultEvent::Kind::BatteryFade:
      GC_CHECK_MSG(in_range(event.node), "battery_fade needs a valid node");
      GC_CHECK_MSG(event.start >= 0,
                   "battery_fade is deterministic: needs start >= 0");
      GC_CHECK_MSG(event.magnitude >= 0.0 && event.magnitude <= 1.0,
                   "battery_fade magnitude is a capacity fraction in [0, 1]");
      break;
    case FaultEvent::Kind::LinkFade:
      GC_CHECK_MSG(in_range(event.node) && in_range(event.peer) &&
                       event.node != event.peer,
                   "link_fade needs valid distinct node and peer");
      break;
    case FaultEvent::Kind::ProcessKill:
      GC_CHECK_MSG(event.start >= 0,
                   "process_kill is deterministic: needs start >= 0");
      break;
  }
  events_.push_back(event);
}

bool FaultSchedule::window_active(std::size_t event_idx, const FaultEvent& e,
                                  int t) const {
  if (e.start >= 0) return t >= e.start && t - e.start < e.duration;
  // Stochastic: a window started at any u in (t - duration, t] covers t.
  // Each u's start draw is a pure function of (seed, event, u), so this
  // scan gives identical answers no matter where the run was resumed.
  const Rng parent(event_seed(seed_, event_idx));
  const int first = std::max(0, t - e.duration + 1);
  for (int u = first; u <= t; ++u) {
    Rng draw = parent.fork(static_cast<std::uint64_t>(u));
    if (draw.bernoulli(e.probability)) return true;
  }
  return false;
}

double FaultSchedule::fade_fraction(const FaultEvent& e, int t) const {
  if (t < e.start) return 1.0;
  const double progress =
      std::min(1.0, static_cast<double>(t - e.start + 1) / e.duration);
  return 1.0 - (1.0 - e.magnitude) * progress;
}

SlotFaults FaultSchedule::at(int t) const {
  GC_CHECK(t >= 0);
  SlotFaults f;
  const auto ensure = [&](std::vector<char>& v) {
    if (v.empty()) v.assign(static_cast<std::size_t>(num_nodes_), 0);
  };
  const auto mark = [&](std::vector<char>& v, int node) {
    ensure(v);
    if (node >= 0) {
      v[node] = 1;
    } else {
      std::fill(v.begin(), v.end(), 1);
    }
  };
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    if (e.kind == FaultEvent::Kind::ProcessKill) {
      if (e.start != t) continue;
      // Rank this kill by (start, insertion order) among all kills so the
      // run loop can skip exactly the ones already survived. Keep the MAX
      // rank firing at t: two kills at the same slot must fire on two
      // consecutive attempts, not collapse into one.
      int rank = 0;
      for (std::size_t j = 0; j < events_.size(); ++j) {
        const FaultEvent& o = events_[j];
        if (o.kind != FaultEvent::Kind::ProcessKill || j == i) continue;
        if (o.start < e.start || (o.start == e.start && j < i)) ++rank;
      }
      f.kill_ordinal = std::max(f.kill_ordinal, rank);
      continue;  // never counts as an active physics event
    }
    if (e.kind == FaultEvent::Kind::BatteryFade) {
      const double frac = fade_fraction(e, t);
      if (frac >= 1.0) continue;
      if (f.battery_capacity_fraction.empty())
        f.battery_capacity_fraction.assign(
            static_cast<std::size_t>(num_nodes_), 1.0);
      f.battery_capacity_fraction[e.node] =
          std::min(f.battery_capacity_fraction[e.node], frac);
      ++f.active_events;
      continue;
    }
    if (!window_active(i, e, t)) continue;
    ++f.active_events;
    switch (e.kind) {
      case FaultEvent::Kind::NodeOutage:
        mark(f.node_down, e.node);
        break;
      case FaultEvent::Kind::RenewableBlackout:
        mark(f.renewable_blackout, e.node);
        break;
      case FaultEvent::Kind::GridOutage:
        mark(f.grid_outage, e.node);
        break;
      case FaultEvent::Kind::PriceSpike:
        f.cost_multiplier *= e.magnitude;
        break;
      case FaultEvent::Kind::LinkFade:
        if (f.link_faded.empty())
          f.link_faded.assign(
              static_cast<std::size_t>(num_nodes_) * num_nodes_, 0);
        f.link_faded[static_cast<std::size_t>(e.node) * num_nodes_ + e.peer] =
            1;
        break;
      case FaultEvent::Kind::BatteryFade:
      case FaultEvent::Kind::ProcessKill:
        break;  // handled above
    }
  }
  return f;
}

FaultSchedule FaultSchedule::from_json(const std::string& json_text,
                                       int num_nodes) {
  const obs::JsonValue root = obs::json_parse(json_text);
  obs::JsonReader spec(root, "fault spec");
  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;
  spec.u64("seed", seed);
  spec.array("events", events, [](obs::JsonReader& ev, FaultEvent& e) {
    ev.choice(obs::required("kind"), e.kind, kKindNames);
    ev.integer("node", e.node, -1);
    ev.integer("peer", e.peer, -1);
    ev.integer("start", e.start, -1);
    ev.integer("duration", e.duration, 1);
    ev.number("probability", e.probability, obs::Num::Unit);
    ev.number("magnitude", e.magnitude);
  });
  spec.close();
  FaultSchedule schedule(num_nodes, seed);
  for (const FaultEvent& e : events) schedule.add(e);
  return schedule;
}

FaultSchedule FaultSchedule::from_json_file(const std::string& path,
                                            int num_nodes) {
  return obs::read_json_file(path, "fault spec", [&](const std::string& t) {
    return from_json(t, num_nodes);
  });
}

void apply_slot_faults(const SlotFaults& faults, core::SlotInputs& inputs,
                       core::NetworkState& state) {
  if (!faults.any()) return;
  FaultMetrics& m = metrics();
  m.events.add(faults.active_events);
  if (!faults.node_down.empty()) {
    inputs.node_down = faults.node_down;
    for (char d : faults.node_down)
      if (d) m.node_down.add();
  }
  if (!faults.renewable_blackout.empty()) {
    for (std::size_t i = 0; i < faults.renewable_blackout.size(); ++i)
      if (faults.renewable_blackout[i]) {
        inputs.renewable_j[i] = 0.0;
        m.blackout.add();
      }
  }
  if (!faults.grid_outage.empty()) {
    for (std::size_t i = 0; i < faults.grid_outage.size(); ++i)
      if (faults.grid_outage[i]) {
        inputs.grid_connected[i] = 0;
        m.grid.add();
      }
  }
  if (!faults.link_faded.empty()) {
    inputs.link_faded = faults.link_faded;
    for (char l : faults.link_faded)
      if (l) m.link.add();
  }
  if (faults.cost_multiplier != 1.0) {
    inputs.cost_multiplier *= faults.cost_multiplier;
    m.spike.add();
  }
  if (!faults.battery_capacity_fraction.empty()) {
    const auto& model = state.model();
    for (int i = 0; i < model.num_nodes(); ++i) {
      const double target =
          model.node(i).battery.capacity_j * faults.battery_capacity_fraction[i];
      if (state.battery_capacity_j(i) == target) continue;
      m.fade_j.add(state.set_battery_capacity_j(i, target));
    }
  }
}

}  // namespace gc::fault
