#include "policy/sleep.hpp"

#include <algorithm>
#include <iterator>

#include "energy/node_energy.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace gc::policy {

namespace {

// policy.* instruments (docs/OBSERVABILITY.md): cumulative switch count
// and energy, BS-slots spent non-awake, and the current awake set size.
struct PolicyMetrics {
  obs::Counter& switches = obs::registry().counter("policy.switches");
  obs::Counter& switch_energy_j =
      obs::registry().counter("policy.switch_energy_j");
  obs::Counter& sleep_slots = obs::registry().counter("policy.sleep_slots");
  obs::Gauge& awake_bs = obs::registry().gauge("policy.awake_bs");
};

PolicyMetrics& policy_metrics() {
  static thread_local PolicyMetrics m;
  return m;
}

}  // namespace

const char* sleep_policy_name(SleepPolicy p) {
  return kSleepPolicyNames[static_cast<int>(p)];
}

SleepPolicy parse_sleep_policy(const std::string& name) {
  std::string names;
  for (std::size_t i = 0; i < std::size(kSleepPolicyNames); ++i) {
    if (name == kSleepPolicyNames[i]) return static_cast<SleepPolicy>(i);
    names += std::string(i ? ", " : "") + kSleepPolicyNames[i];
  }
  GC_CHECK_MSG(false, "unknown sleep policy \"" << name
                                                << "\" (expected one of "
                                                << names << ")");
  return SleepPolicy::AlwaysOn;  // unreachable
}

SleepController::SleepController(const core::NetworkModel& model,
                                 const SleepSetup& setup, double V)
    : model_(&model), config_(setup.config), bs_(setup.bs), v_(V) {
  const std::size_t n = static_cast<std::size_t>(model.num_base_stations());
  GC_CHECK_MSG(bs_.empty() || bs_.size() == n,
               "sleep setup covers " << bs_.size() << " base stations, model "
                                     << "has " << n);
  bs_.resize(n);  // missing entries take the defaults
  mode_.assign(n, Mode::Awake);
  // Start every dwell satisfied so the policy may act from slot 0.
  dwell_.assign(n, config_.min_dwell_slots);
  wake_countdown_.assign(n, 0);
  backlog_.assign(n, 0.0);
  GC_CHECK_MSG(config_.min_awake_bs >= 1,
               "min_awake_bs must be >= 1 (some base station has to serve)");
}

int SleepController::awake_count() const {
  int n = 0;
  for (Mode m : mode_) n += m == Mode::Awake;
  return n;
}
int SleepController::asleep_count() const {
  int n = 0;
  for (Mode m : mode_) n += m == Mode::Sleeping;
  return n;
}
int SleepController::waking_count() const {
  int n = 0;
  for (Mode m : mode_) n += m == Mode::Waking;
  return n;
}

// Charges `j` joules of switching energy into this slot's demand overlay
// and the cumulative accounting.
void SleepController::charge_switch(int bs, double j) {
  if (j <= 0.0) return;
  pending_switch_j_[bs] += j;
  st_.switch_energy_j += j;
  policy_metrics().switch_energy_j.add(j);
}

void SleepController::command_sleep(int bs) {
  mode_[bs] = Mode::Sleeping;
  dwell_[bs] = 0;
  ++st_.switches;
  policy_metrics().switches.add();
  // The sleep transition energy is charged this very slot, on top of the
  // sleep power, through the node's (replaced) S4 demand.
  charge_switch(bs, bs_[bs].sleep_switch_j);
}

void SleepController::command_wake(int bs) {
  dwell_[bs] = 0;
  ++st_.switches;
  policy_metrics().switches.add();
  if (bs_[bs].wake_latency_slots <= 0) {
    // Instant wake: online this very slot; the transition energy rides on
    // top of the node's normal computed demand.
    mode_[bs] = Mode::Awake;
    wake_countdown_[bs] = 0;
    charge_switch(bs, bs_[bs].wake_switch_j);
  } else {
    mode_[bs] = Mode::Waking;
    wake_countdown_[bs] = bs_[bs].wake_latency_slots;
  }
}

void SleepController::decide(int slot, const core::NetworkState& state,
                             core::SlotInputs& inputs) {
  const int n_bs = model_->num_base_stations();
  const int n_sessions = model_->num_sessions();
  const double dt = model_->slot_seconds();
  pending_switch_j_.assign(static_cast<std::size_t>(n_bs), 0.0);

  // 1. Waking base stations whose countdown expired come online this slot.
  for (int b = 0; b < n_bs; ++b)
    if (mode_[b] == Mode::Waking && wake_countdown_[b] <= 0) {
      mode_[b] = Mode::Awake;
      dwell_[b] = 0;
    }

  // 2. Faults compose: a sleeping BS hit by a node outage is ordered awake
  // immediately, so it wakes INTO the outage and pays the wake transition
  // like any other wake (docs/ROBUSTNESS.md).
  for (int b = 0; b < n_bs; ++b)
    if (mode_[b] == Mode::Sleeping && inputs.node_is_down(b))
      command_wake(b);

  // 3. Load signal: per-BS data backlog and the mean over the awake set.
  double awake_backlog = 0.0;
  int awake = 0;
  for (int b = 0; b < n_bs; ++b) {
    double q = 0.0;
    for (int s = 0; s < n_sessions; ++s) q += state.q(b, s);
    backlog_[b] = q;
    if (mode_[b] == Mode::Awake) {
      awake_backlog += q;
      ++awake;
    }
  }
  const double avg = awake > 0 ? awake_backlog / awake : 0.0;

  // DriftPlusPenalty pricing: the slot's marginal grid price at the awake
  // set's baseline draw, including tariff and any fault price spike.
  double price = 0.0;
  if (config_.policy == SleepPolicy::DriftPlusPenalty) {
    double base_j = 0.0;
    for (int b = 0; b < n_bs; ++b)
      if (mode_[b] == Mode::Awake)
        base_j += energy::baseline_energy_j(model_->node(b).energy, dt);
    price = model_->cost_at(slot).derivative(base_j) * inputs.cost_multiplier;
  }
  const double beta = model_->beta();

  // 4. Policy evaluation over the pre-command awake/sleeping sets. Sleep
  // candidates are scanned from the highest BS index down (small-cell
  // tiers come after the macros in tier order), wakes from the lowest up —
  // both orders are deterministic, so every run replays bit-identically.
  const bool dwell_gated = config_.policy != SleepPolicy::Threshold;
  const auto dwell_ok = [&](int b) {
    return !dwell_gated || dwell_[b] >= config_.min_dwell_slots;
  };
  const auto sleepable = [&](int b) {
    return mode_[b] == Mode::Awake && bs_[b].can_sleep &&
           !inputs.node_is_down(b) && dwell_ok(b) &&
           awake > config_.min_awake_bs;
  };
  switch (config_.policy) {
    case SleepPolicy::AlwaysOn:
      break;
    case SleepPolicy::Threshold:
    case SleepPolicy::Hysteresis: {
      const double sleep_at = config_.sleep_threshold;
      const double wake_at = config_.policy == SleepPolicy::Threshold
                                 ? config_.sleep_threshold
                                 : config_.wake_threshold;
      if (avg >= wake_at) {
        for (int b = 0; b < n_bs; ++b)
          if (mode_[b] == Mode::Sleeping && dwell_ok(b)) command_wake(b);
      } else if (avg < sleep_at) {
        // A BS only dozes while its own backlog is below the threshold
        // too: sleeping strands the frozen queue until the next wake.
        for (int b = n_bs - 1; b >= 0; --b)
          if (sleepable(b) && backlog_[b] <= sleep_at) {
            command_sleep(b);
            --awake;
          }
      }
      break;
    }
    case SleepPolicy::DriftPlusPenalty: {
      // Switching energy folded into the penalty term, amortized over the
      // minimum dwell: V * price * switch_j / min_dwell forms a price band
      // around the sleep/wake indifference point (docs/ALGORITHM.md).
      const double amort = config_.switch_cost_weight * v_ * price /
                           std::max(1, config_.min_dwell_slots);
      for (int b = n_bs - 1; b >= 0; --b) {
        const double save_j =
            energy::baseline_energy_j(model_->node(b).energy, dt) -
            bs_[b].sleep_power_w * dt;
        const double switch_j = bs_[b].sleep_switch_j + bs_[b].wake_switch_j;
        // Penalty saved per slot asleep minus the drift-side value of
        // keeping b awake (its own backlog plus the load it would shed
        // onto the awake set).
        const double score = v_ * price * save_j - beta * (backlog_[b] + avg);
        if (mode_[b] == Mode::Sleeping) {
          if (score < -amort * switch_j && dwell_ok(b)) command_wake(b);
        } else if (sleepable(b) && score > amort * switch_j) {
          command_sleep(b);
          --awake;
        }
      }
      break;
    }
  }

  // 5. Final Waking slot: the wake transition energy lands here, so the BS
  // comes online next slot already paid up.
  for (int b = 0; b < n_bs; ++b)
    if (mode_[b] == Mode::Waking && wake_countdown_[b] == 1)
      charge_switch(b, bs_[b].wake_switch_j);

  // 6. Write the overlay. Non-awake base stations are masked and their S4
  // demand replaced by sleep power plus any switching energy; awake nodes
  // with a pending (instant-wake) charge get it added on top of their
  // normal demand.
  const std::size_t n = static_cast<std::size_t>(model_->num_nodes());
  int non_awake = 0;
  for (int b = 0; b < n_bs; ++b) {
    if (mode_[b] != Mode::Awake) {
      ++non_awake;
      if (inputs.node_asleep.empty()) inputs.node_asleep.assign(n, 0);
      inputs.node_asleep[b] = 1;
      if (inputs.policy_demand_j.empty())
        inputs.policy_demand_j.assign(n, 0.0);
      inputs.policy_demand_j[b] =
          bs_[b].sleep_power_w * dt + pending_switch_j_[b];
    } else if (pending_switch_j_[b] > 0.0) {
      if (inputs.policy_demand_j.empty())
        inputs.policy_demand_j.assign(n, 0.0);
      inputs.policy_demand_j[b] = pending_switch_j_[b];
    }
  }
  if (non_awake > 0) {
    st_.sleep_slots += static_cast<std::uint64_t>(non_awake);
    policy_metrics().sleep_slots.add(non_awake);
  }
  policy_metrics().awake_bs.set(static_cast<double>(n_bs - non_awake));

  // 7. Advance timers for the next slot.
  for (int b = 0; b < n_bs; ++b) {
    if (mode_[b] == Mode::Waking) --wake_countdown_[b];
    ++dwell_[b];
  }
}

SleepControllerState SleepController::snapshot() const {
  SleepControllerState s = st_;
  s.mode.resize(mode_.size());
  for (std::size_t i = 0; i < mode_.size(); ++i)
    s.mode[i] = static_cast<std::uint8_t>(mode_[i]);
  s.dwell = dwell_;
  s.wake_countdown = wake_countdown_;
  return s;
}

void SleepController::restore(const SleepControllerState& s) {
  GC_CHECK_MSG(s.mode.size() == mode_.size() &&
                   s.dwell.size() == dwell_.size() &&
                   s.wake_countdown.size() == wake_countdown_.size(),
               "checkpointed policy state covers "
                   << s.mode.size() << " base stations, model has "
                   << mode_.size());
  for (std::size_t i = 0; i < mode_.size(); ++i) {
    GC_CHECK_MSG(s.mode[i] <= 2,
                 "corrupt policy mode " << static_cast<int>(s.mode[i]));
    mode_[i] = static_cast<Mode>(s.mode[i]);
  }
  dwell_ = s.dwell;
  wake_countdown_ = s.wake_countdown;
  st_.switches = s.switches;
  st_.switch_energy_j = s.switch_energy_j;
  st_.sleep_slots = s.sleep_slots;
}

}  // namespace gc::policy
