#include "obs/alerts.hpp"

#include <cstdio>

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace gc::obs {

namespace {

void fnv_mix(std::uint64_t* h, const std::string& s) {
  for (unsigned char c : s) {
    *h ^= c;
    *h *= 1099511628211ull;
  }
  *h ^= 0xff;  // field separator so {"ab","c"} != {"a","bc"}
  *h *= 1099511628211ull;
}

// Name tables, indexed by their enum: the rule file's spellings, which
// rules_hash() also digests.
constexpr const char* kKindNames[] = {"auto", "counter", "gauge"};
constexpr const char* kOpNames[] = {">", "<"};
constexpr const char* kSeverityNames[] = {"warning", "critical"};

}  // namespace

AlertEngine::AlertEngine(std::vector<AlertRule> rules)
    : rules_(std::move(rules)) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    GC_CHECK_MSG(!rules_[i].name.empty(), "alert rule needs a name");
    GC_CHECK_MSG(!rules_[i].metric.empty(),
                 "alert rule " << rules_[i].name << " needs a metric");
    GC_CHECK_MSG(rules_[i].window_slots >= 0,
                 "alert rule " << rules_[i].name << ": window_slots >= 0");
    GC_CHECK_MSG(rules_[i].for_slots >= 1,
                 "alert rule " << rules_[i].name << ": for_slots >= 1");
    for (std::size_t j = 0; j < i; ++j)
      GC_CHECK_MSG(rules_[j].name != rules_[i].name,
                   "duplicate alert rule name " << rules_[i].name);
  }
  states_.resize(rules_.size());
}

AlertEngine AlertEngine::from_json(const std::string& text) {
  const JsonValue root = json_parse(text);
  JsonReader spec(root, "alert rules");
  std::vector<AlertRule> rules;
  spec.array(required("rules"), rules, [](JsonReader& e, AlertRule& r) {
    e.string(required("name"), r.name);
    e.string(required("metric"), r.metric);
    e.choice("kind", r.kind, kKindNames);
    e.choice(required("op"), r.op, kOpNames);
    e.number(required("value"), r.threshold);
    e.integer("window_slots", r.window_slots, 0);
    e.integer("for_slots", r.for_slots, 1);
    e.choice(required("severity"), r.critical, kSeverityNames);
  });
  spec.close();
  return AlertEngine(std::move(rules));
}

AlertEngine AlertEngine::from_json_file(const std::string& path) {
  return read_json_file(path, "alert rules file", from_json);
}

std::uint64_t AlertEngine::rules_hash() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const AlertRule& r : rules_) {
    fnv_mix(&h, r.name);
    fnv_mix(&h, r.metric);
    fnv_mix(&h, kKindNames[static_cast<int>(r.kind)]);
    fnv_mix(&h, kOpNames[static_cast<int>(r.op)]);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", r.threshold);
    fnv_mix(&h, buf);
    fnv_mix(&h, std::to_string(r.window_slots));
    fnv_mix(&h, std::to_string(r.for_slots));
    fnv_mix(&h, kSeverityNames[r.critical]);
  }
  return h;
}

void AlertEngine::resolve(RuleState& rs, const AlertRule& rule,
                          const Registry& registry) const {
  // Lookup without create: scan the registry views. Instruments register
  // lazily at first use, so an unresolved rule re-scans each evaluation
  // until its target appears; once found the pointer is stable for the
  // registry's lifetime.
  if (rs.counter == nullptr &&
      rule.kind != AlertRule::MetricKind::kGauge) {
    for (const auto& [name, c] : registry.counters())
      if (name == rule.metric) {
        rs.counter = c;
        break;
      }
  }
  if (rs.counter == nullptr && rs.gauge == nullptr &&
      rule.kind != AlertRule::MetricKind::kCounter) {
    for (const auto& [name, g] : registry.gauges())
      if (name == rule.metric) {
        rs.gauge = g;
        break;
      }
  }
}

void AlertEngine::rebase(const Registry& registry) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    RuleState& rs = states_[i];
    resolve(rs, rules_[i], registry);
    rs.prev_raw = rs.counter != nullptr ? rs.counter->total() : 0.0;
  }
}

void AlertEngine::evaluate(const Registry& registry, int slot,
                           EventJournal* journal) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const AlertRule& rule = rules_[i];
    RuleState& rs = states_[i];
    if (rs.counter == nullptr && rs.gauge == nullptr) {
      resolve(rs, rule, registry);
      // A counter appearing mid-run starts from zero; everything it has
      // counted so far happened inside the loop, so no rebase here.
    }
    double v;
    if (rs.counter != nullptr) {
      const double raw = rs.counter->total();
      rs.cum += raw - rs.prev_raw;
      rs.prev_raw = raw;
      v = rs.cum;
    } else if (rs.gauge != nullptr) {
      v = rs.gauge->value();
    } else {
      v = 0.0;
    }
    double eval = v;
    if (rule.window_slots > 0) {
      // Increase over the last window_slots slots (shorter at run start).
      eval = v - (rs.window.empty() ? 0.0 : rs.window.front());
      rs.window.push_back(v);
      while (static_cast<int>(rs.window.size()) > rule.window_slots)
        rs.window.pop_front();
    }
    const bool holds = rule.op == AlertRule::Op::kGreater
                           ? eval > rule.threshold
                           : eval < rule.threshold;
    if (holds) {
      if (rs.hold < 0xffffffffu) ++rs.hold;
      if (!rs.firing && rs.hold >= static_cast<std::uint32_t>(
                                       rule.for_slots)) {
        rs.firing = true;
        ++total_fires_;
        if (journal != nullptr)
          journal->emit_slot(EventKind::kAlertFire, slot, eval,
                             rule.name + " [" +
                                 (rule.critical ? "critical" : "warning") +
                                 "] " + rule.metric);
      }
    } else {
      rs.hold = 0;
      if (rs.firing) {
        rs.firing = false;
        if (journal != nullptr)
          journal->emit_slot(EventKind::kAlertClear, slot, eval,
                             rule.name + " [" +
                                 (rule.critical ? "critical" : "warning") +
                                 "] " + rule.metric);
      }
    }
  }
}

int AlertEngine::firing() const {
  int n = 0;
  for (const RuleState& rs : states_)
    if (rs.firing) ++n;
  return n;
}

int AlertEngine::critical_firing() const {
  int n = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i)
    if (states_[i].firing && rules_[i].critical) ++n;
  return n;
}

AlertEngineState AlertEngine::state() const {
  AlertEngineState s;
  s.rules_hash = rules_hash();
  s.total_fires = total_fires_;
  s.rules.reserve(states_.size());
  for (const RuleState& rs : states_) {
    AlertEngineState::Rule r;
    r.cum = rs.cum;
    r.hold = rs.hold;
    r.firing = rs.firing;
    r.window.assign(rs.window.begin(), rs.window.end());
    s.rules.push_back(std::move(r));
  }
  return s;
}

void AlertEngine::restore(const AlertEngineState& state) {
  GC_CHECK_MSG(state.rules_hash == rules_hash(),
               "checkpointed alert state was recorded under a different "
               "rule set (edit the rules only between runs, or restart "
               "from slot 0)");
  GC_CHECK_MSG(state.rules.size() == states_.size(),
               "checkpointed alert state arity mismatch");
  total_fires_ = state.total_fires;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    RuleState& rs = states_[i];
    rs.cum = state.rules[i].cum;
    rs.hold = state.rules[i].hold;
    rs.firing = state.rules[i].firing;
    rs.window.assign(state.rules[i].window.begin(),
                     state.rules[i].window.end());
    // prev_raw is re-latched by rebase() before the loop starts.
  }
}

}  // namespace gc::obs
