#include "scenario/spec.hpp"

#include <algorithm>
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "energy/tariff.hpp"
#include "obs/json.hpp"
#include "policy/sleep.hpp"

namespace gc::scenario {

namespace {

using obs::JsonKey;
using obs::Num;
using obs::required;
using sim::ScenarioConfig;

constexpr const char* kLayouts[] = {"paper", "hex_grid"};
constexpr const char* kPlacements[] = {"uniform", "poisson", "clustered"};
constexpr const char* kTrafficKinds[] = {"constant", "diurnal", "bursty",
                                         "flash_crowd"};
constexpr const char* kRenewableKinds[] = {"uniform", "solar", "wind"};
constexpr const char* kTariffKinds[] = {"flat", "time_of_use", "trace"};
constexpr const char* kPhyPolicies[] = {"min_power_fixed_rate",
                                        "max_power_adaptive_rate"};

// Which canonical dumps carry a field (its JsonKey tag). Structural fields
// fix the run's state dimensions and decision structure: every dump has
// them. Workload fields may be swapped at a hot-reload slot boundary, so
// the structural dump drops them. The name is attribution, not
// configuration: only to_json writes it.
enum Tag : int { kStructural, kWorkload, kName };

JsonKey workload(const char* key) { return JsonKey(key, kWorkload); }

template <class Io>
void battery(Io& io, double& capacity_j, double& charge_j,
             double& discharge_j, double& initial_frac) {
  io.number("capacity_j", capacity_j, Num::NonNegative);
  io.number("charge_j", charge_j, Num::NonNegative);
  io.number("discharge_j", discharge_j, Num::NonNegative);
  io.number("initial_frac", initial_frac, Num::Unit);
}

// Every tariff resolves to its multiplier trace, or to flat: time_of_use
// inputs are read but never written, so equal configs serialize equally.
template <class Io>
void tariff(Io& io, std::vector<double>& multipliers) {
  enum { kFlat, kTimeOfUse, kTrace };
  int kind = multipliers.empty() ? kFlat : kTrace;
  io.choice("kind", kind, kTariffKinds);
  if constexpr (!Io::kReading) {
    if (kind == kTrace)
      io.number_array("multipliers", multipliers, Num::Positive);
  } else {
    int slots_per_day = 24, peak_begin = 8, peak_end = 20;
    double peak_mult = 2.0, offpeak_mult = 1.0;
    std::vector<double> trace;
    io.integer("slots_per_day", slots_per_day, 1);
    io.integer("peak_begin", peak_begin, 0);
    io.integer("peak_end", peak_end, 0);
    io.number("peak_mult", peak_mult, Num::Positive);
    io.number("offpeak_mult", offpeak_mult, Num::Positive);
    io.number_array("multipliers", trace, Num::Positive);
    if (kind == kFlat) {
      multipliers.clear();
    } else if (kind == kTimeOfUse) {
      if (!(peak_begin <= peak_end && peak_end <= slots_per_day))
        io.fail("time_of_use needs peak_begin <= peak_end <= slots_per_day");
      multipliers = energy::time_of_use_tariff(
          slots_per_day, peak_begin, peak_end, peak_mult, offpeak_mult);
    } else {
      if (trace.empty())
        io.fail("multipliers",
                "expected non-empty array of numbers > 0 for kind \"trace\"");
      multipliers = trace;
    }
  }
}

// The scenario schema, field by field: the one definition of its keys,
// their order in the canonical dump, their domains, their defaults (the
// ScenarioConfig initializers) and their tags. A Writer only reads `spec`.
template <class Io>
void fields(Io& io, ScenarioSpec& spec) {
  ScenarioConfig& c = spec.config;
  io.identifier(JsonKey("name", kName), spec.name);
  io.u64("seed", c.seed);

  io.object("topology", [&](Io& t) {
    t.choice("layout", c.topology.layout, kLayouts);
    t.number("area_m", c.area_m, Num::Positive);
    t.object("cells", [&](Io& cells) {
      cells.integer("rows", c.topology.rows, 1);
      cells.integer("cols", c.topology.cols, 1);
      cells.number("radius_m", c.topology.cell_radius_m, Num::Positive);
    });
    t.object("users", [&](Io& u) {
      u.integer("count", c.num_users, 1);
      u.choice("placement", c.topology.placement, kPlacements);
      u.integer("hotspots", c.topology.hotspots, 1);
      u.number("hotspot_sigma_m", c.topology.hotspot_sigma_m, Num::Positive);
      u.number("hotspot_fraction", c.topology.hotspot_fraction, Num::Unit);
    });
  });

  io.object("radio", [&](Io& r) {
    r.number("sinr_threshold", c.radio.sinr_threshold, Num::Positive);
    r.number("noise_psd_w_per_hz", c.radio.noise_psd_w_per_hz,
             Num::Positive);
  });

  io.object("propagation", [&](Io& p) {
    p.number("antenna_constant", c.propagation.antenna_constant,
             Num::Positive);
    p.number("path_loss_exponent", c.propagation.path_loss_exponent,
             Num::Positive);
    p.number("min_distance_m", c.propagation.min_distance_m, Num::Positive);
  });

  io.object("spectrum", [&](Io& s) {
    s.number("cellular_bandwidth_hz", c.spectrum.cellular_bandwidth_hz,
             Num::Positive);
    s.integer("num_random_bands", c.spectrum.num_random_bands, 0);
    s.number("random_bandwidth_lo_hz", c.spectrum.random_bandwidth_lo_hz,
             Num::Positive);
    s.number("random_bandwidth_hi_hz", c.spectrum.random_bandwidth_hi_hz,
             Num::Positive);
    s.number("user_band_probability", c.spectrum.user_band_probability,
             Num::Unit);
  });

  io.object("time", [&](Io& t) {
    t.number("slot_seconds", c.slot_seconds, Num::Positive);
    t.number("packet_bits", c.packet_bits, Num::Positive);
  });

  // The session count is the per-user queue arity; the rest is its shape.
  io.object("traffic", [&](Io& t) {
    t.choice(workload("kind"), c.traffic.kind, kTrafficKinds);
    t.integer("sessions", c.num_sessions, 1);
    t.number(workload("rate_bps"), c.session_rate_bps, Num::Positive);
    t.number(workload("admit_factor"), c.admit_factor, Num::Positive);
    t.integer(workload("slots_per_day"), c.traffic.slots_per_day, 2);
    t.number(workload("amplitude"), c.traffic.amplitude, Num::Unit);
    t.number(workload("peak_phase"), c.traffic.peak_phase, Num::Unit);
    t.number(workload("on_mult"), c.traffic.on_mult, Num::NonNegative);
    t.number(workload("off_mult"), c.traffic.off_mult, Num::NonNegative);
    t.number(workload("p_on_off"), c.traffic.p_on_off, Num::UnitPositive);
    t.number(workload("p_off_on"), c.traffic.p_off_on, Num::UnitPositive);
    t.integer(workload("block_slots"), c.traffic.block_slots, 1);
    t.integer(workload("start_slot"), c.traffic.start_slot, 0);
    t.integer(workload("duration_slots"), c.traffic.duration_slots, 1);
    t.number(workload("spike_multiplier"), c.traffic.spike_multiplier,
             Num::NonNegative);
  });

  io.object("renewables", [&](Io& r) {
    r.choice("kind", c.renewable.kind, kRenewableKinds);
    r.number("bs_peak_w", c.bs_renewable_peak_w, Num::NonNegative);
    r.number("user_peak_w", c.user_renewable_peak_w, Num::NonNegative);
    r.integer("slots_per_day", c.renewable.slots_per_day, 2);
    r.number("clearness_lo", c.renewable.clearness_lo, Num::Unit);
    r.number("weibull_shape", c.renewable.weibull_shape, Num::Positive);
    r.number("rated_speed_ratio", c.renewable.rated_speed_ratio,
             Num::Positive);
  });

  io.object(workload("tariff"),
            [&](Io& t) { tariff(t, c.tariff_multipliers); });

  io.object("energy", [&](Io& e) {
    e.object("bs", [&](Io& bs) {
      bs.number("const_w", c.bs_const_w, Num::NonNegative);
      bs.number("idle_w", c.bs_idle_w, Num::NonNegative);
      bs.number("recv_w", c.bs_recv_w, Num::NonNegative);
      bs.number("tx_max_w", c.bs_tx_max_w, Num::Positive);
      bs.number("grid_max_j", c.bs_grid_max_j, Num::NonNegative);
      bs.object("battery", [&](Io& b) {
        battery(b, c.bs_batt_capacity_j, c.bs_batt_charge_j,
                c.bs_batt_discharge_j, c.bs_batt_initial_frac);
      });
    });
    e.object("user", [&](Io& u) {
      u.number("const_w", c.user_const_w, Num::NonNegative);
      u.number("idle_w", c.user_idle_w, Num::NonNegative);
      u.number("recv_w", c.user_recv_w, Num::NonNegative);
      u.number("tx_max_w", c.user_tx_max_w, Num::Positive);
      u.number("grid_max_j", c.user_grid_max_j, Num::NonNegative);
      u.number("connect_probability", c.user_connect_probability, Num::Unit);
      u.object("battery", [&](Io& b) {
        battery(b, c.user_batt_capacity_j, c.user_batt_charge_j,
                c.user_batt_discharge_j, c.user_batt_initial_frac);
      });
    });
    e.object("cost", [&](Io& k) {
      k.number("a", c.cost_a, Num::NonNegative);
      k.number("b", c.cost_b, Num::NonNegative);
      k.number("c", c.cost_c, Num::NonNegative);
    });
  });

  // Base-station tiers and sleep policy (src/policy); absent means one
  // homogeneous always-on tier, the paper scenario. Tiers override
  // energy.bs for the BS indices they cover, so they are structural. The
  // sleep block is written only when it is not the default, and the
  // Writer drops the then-empty section, so pre-tier specs keep their hash.
  io.object("bs", [&](Io& bs) {
    bs.array("tiers", c.bs_tiers, [](Io& t, policy::TierSpec& tier) {
      t.identifier("name", tier.name);
      t.integer(required("count"), tier.count, 1);
      t.number("const_w", tier.const_w, Num::NonNegative);
      t.number("idle_w", tier.idle_w, Num::NonNegative);
      t.number("recv_w", tier.recv_w, Num::NonNegative);
      t.number("tx_max_w", tier.tx_max_w, Num::Positive);
      t.number("sleep_power_w", tier.sleep_power_w, Num::NonNegative);
      t.integer("wake_latency_slots", tier.wake_latency_slots, 0);
      t.number("sleep_switch_j", tier.sleep_switch_j, Num::NonNegative);
      t.number("wake_switch_j", tier.wake_switch_j, Num::NonNegative);
      t.boolean("can_sleep", tier.can_sleep);
    });
    policy::SleepPolicyConfig& sleep = c.bs_sleep;
    if (Io::kReading || sleep != policy::SleepPolicyConfig{})
      bs.object(workload("sleep"), [&](Io& s) {
        s.choice("policy", sleep.policy, policy::kSleepPolicyNames);
        s.number("sleep_threshold", sleep.sleep_threshold, Num::NonNegative);
        s.number("wake_threshold", sleep.wake_threshold, Num::NonNegative);
        s.integer("min_dwell_slots", sleep.min_dwell_slots, 0);
        s.integer("min_awake_bs", sleep.min_awake_bs, 1);
        s.number("switch_cost_weight", sleep.switch_cost_weight,
                 Num::NonNegative);
        if constexpr (Io::kReading)
          if (sleep.wake_threshold < sleep.sleep_threshold)
            s.fail("wake_threshold must be >= sleep_threshold");
      });
  });

  io.object("architecture", [&](Io& a) {
    a.boolean("multihop", c.multihop);
    a.boolean("renewables", c.renewables);
    a.integer("bs_radios", c.bs_radios, 1);
    a.integer("user_radios", c.user_radios, 1);
    a.choice("phy_policy", c.phy_policy, kPhyPolicies);
  });

  io.object("algorithm",
            [&](Io& a) { a.number("lambda", c.lambda, Num::NonNegative); });
}

// The canonical writer: the field list's key order, 2-space indent, %.17g
// numbers. It writes the fields tagged at most `widest` and leaves out
// sections that end up empty. Given `leaves`, it also records each value
// it writes, and each array's length, under the value's dotted path.
class Writer {
 public:
  static constexpr bool kReading = false;
  using Leaf = std::pair<std::string, std::string>;  // path, value text

  explicit Writer(Tag widest, std::vector<Leaf>* leaves = nullptr)
      : widest_(widest), leaves_(leaves) {
    frames_.push_back({nullptr, '}'});  // the root object
  }

  std::string finish() {
    close();
    out_ += '\n';
    return std::move(out_);
  }

  void number(JsonKey k, double v, Num = Num::Any) { leaf(k, fmt(v)); }
  void integer(JsonKey k, int v, int /*min*/) {
    leaf(k, std::to_string(v));
  }
  void u64(JsonKey k, std::uint64_t v) { leaf(k, std::to_string(v)); }
  void boolean(JsonKey k, bool v) { leaf(k, v ? "true" : "false"); }
  void identifier(JsonKey k, const std::string& v) {
    leaf(k, '"' + obs::json_escape(v) + '"');
  }
  template <class E>
  void choice(JsonKey k, E v, std::span<const char* const> names) {
    leaf(k, '"' + std::string(names[static_cast<int>(v)]) + '"');
  }
  void number_array(JsonKey k, const std::vector<double>& v, Num) {
    std::string text = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) text += ", ";
      text += fmt(v[i]);
    }
    leaf(k, text + "]");
  }

  template <class F>
  void object(JsonKey k, F fields) {
    if (k.tag > widest_) return;
    frames_.push_back({k.name, '}'});
    fields(*this);
    close();
  }
  template <class T, class F>
  void array(JsonKey k, std::vector<T>& v, F fields) {
    if (k.tag > widest_) return;
    if (leaves_)
      leaves_->emplace_back(path(k.name), std::to_string(v.size()));
    frames_.push_back({k.name, ']'});
    for (T& e : v) object(nullptr, [&](Writer& w) { fields(w, e); });
    close();
  }

 private:
  // An open object or array. It is written out at its first value, so a
  // section with nothing to write never appears.
  struct Frame {
    const char* key;  // nullptr: the root or an array element
    char end;         // '}' or ']'
    bool written = false;
    bool first = true;
  };

  static std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  void leaf(JsonKey k, const std::string& text) {
    if (k.tag > widest_) return;
    if (leaves_) leaves_->emplace_back(path(k.name), text);
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      if (frames_[i].written) continue;
      if (i > 0) item(i - 1, frames_[i].key);
      out_ += frames_[i].end == '}' ? '{' : '[';
      frames_[i].written = true;
    }
    item(frames_.size() - 1, k.name);
    out_ += text;
  }

  // Starts one entry of frames_[parent]: separator, newline, indent, key.
  void item(std::size_t parent, const char* key) {
    Frame& f = frames_[parent];
    if (!f.first) out_ += ',';
    f.first = false;
    out_ += '\n';
    out_.append(2 * (parent + 1), ' ');
    if (key == nullptr) return;
    out_ += '"';
    out_ += key;
    out_ += "\": ";
  }

  void close() {
    const Frame f = frames_.back();
    frames_.pop_back();
    if (!f.written) return;
    out_ += '\n';
    out_.append(2 * frames_.size(), ' ');
    out_ += f.end;
  }

  std::string path(const char* key) const {
    std::string p;
    for (const Frame& f : frames_) {
      if (f.key == nullptr) continue;
      p += f.key;
      p += '.';
    }
    return p + key;
  }

  Tag widest_;
  std::vector<Leaf>* leaves_;
  std::vector<Frame> frames_;
  std::string out_;
};

std::string dump(const ScenarioSpec& spec, Tag widest,
                 std::vector<Writer::Leaf>* leaves = nullptr) {
  Writer w(widest, leaves);
  fields(w, const_cast<ScenarioSpec&>(spec));
  return w.finish();
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;  // FNV-1a 64 prime
  }
  return h;
}

}  // namespace

ScenarioSpec parse_scenario_json(const std::string& text) {
  const obs::JsonValue root = obs::json_parse(text);
  obs::JsonReader r(root, "scenario");
  ScenarioSpec spec;
  fields(r, spec);
  r.close();
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  return obs::read_json_file(path, "scenario file", parse_scenario_json);
}

std::string to_json(const ScenarioSpec& spec) { return dump(spec, kName); }

std::uint64_t scenario_hash(const ScenarioSpec& spec) {
  return fnv1a64(dump(spec, kWorkload));
}

std::uint64_t scenario_structural_hash(const ScenarioSpec& spec) {
  return fnv1a64(dump(spec, kStructural));
}

std::string first_structural_difference(const ScenarioSpec& a,
                                        const ScenarioSpec& b) {
  std::vector<Writer::Leaf> la, lb;
  dump(a, kStructural, &la);
  dump(b, kStructural, &lb);
  // Array lengths are leaves too, so the two lists share their paths up to
  // the first differing value.
  for (std::size_t i = 0; i < std::min(la.size(), lb.size()); ++i)
    if (la[i] != lb[i]) return la[i].first;
  return "";
}

std::string hash_hex(std::uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace gc::scenario
