// Declarative alert rules over the live metrics registry (docs/
// OBSERVABILITY.md "Operating live runs"): a small engine the simulator
// evaluates at every slot boundary, firing alert_fire / alert_clear events
// into the EventJournal and flipping the HTTP exporter's /healthz to 503
// while any critical rule is firing.
//
// Rule file schema (--alerts FILE):
//   {"rules":[
//     {"name":"lp_degraded",          // unique label, appears in events
//      "metric":"lp.fallbacks",       // registry instrument (dotted name)
//      "kind":"counter",              // optional: "counter" | "gauge";
//                                     //   omitted or "auto" = counters
//                                     //   first, then gauges
//      "op":">",                      // ">" or "<"
//      "value":0,                     // threshold
//      "window_slots":0,              // 0 = cumulative / instantaneous;
//                                     //   N>0 = rate: increase over the
//                                     //   last N slots
//      "for_slots":1,                 // debounce: predicate must hold this
//                                     //   many consecutive slots to fire
//      "severity":"critical"}]}       // "warning" | "critical"
//
// Semantics the byte-identity guarantees depend on:
//  * Counter rules observe IN-LOOP deltas only. rebase() — called once
//    before the first slot, in fresh and resumed runs alike — latches the
//    current raw totals, so resume-time bumps (robust.resumes, truncation
//    counters) never feed a rule. A rule's cumulative value is therefore a
//    pure function of the slots executed since slot 0 (the value survives
//    kills inside the checkpoint), and the alert event stream replays
//    bit-identically across SIGKILL+resume.
//  * Gauge rules read the instantaneous value.
//  * An absent metric reads 0 until the instrument is registered (most
//    instruments register lazily at first use); histograms cannot be rule
//    targets.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace gc::obs {

class Registry;
class Counter;
class Gauge;
class EventJournal;

struct AlertRule {
  std::string name;
  std::string metric;
  enum class MetricKind { kAuto, kCounter, kGauge };
  MetricKind kind = MetricKind::kAuto;
  enum class Op { kGreater, kLess };
  Op op = Op::kGreater;
  double threshold = 0.0;
  int window_slots = 0;  // 0 = cumulative / instantaneous
  int for_slots = 1;     // debounce
  bool critical = false; // severity: critical vs warning
};

// Serializable engine state, carried by checkpoint v6 so a resumed run's
// debounce counters and fire/clear edges replay exactly.
struct AlertEngineState {
  std::uint64_t rules_hash = 0;  // restore refuses on a mismatch
  std::uint64_t total_fires = 0;
  struct Rule {
    double cum = 0.0;  // counter rules: in-loop cumulative total
    std::uint32_t hold = 0;
    bool firing = false;
    std::vector<double> window;  // oldest first
  };
  std::vector<Rule> rules;
};

class AlertEngine {
 public:
  explicit AlertEngine(std::vector<AlertRule> rules);

  // Parses a rule file's text; throws gc::CheckError naming the key path
  // on a malformed file (unknown key, op, severity or kind, missing or
  // non-integer fields, duplicate names).
  static AlertEngine from_json(const std::string& text);
  // Reads and parses the --alerts rule file; errors name the file.
  static AlertEngine from_json_file(const std::string& path);

  const std::vector<AlertRule>& rules() const { return rules_; }

  // FNV-1a over the canonical rule fields; the checkpoint stores it so a
  // resume with an edited rule file is refused instead of silently
  // replaying different alerts.
  std::uint64_t rules_hash() const;

  // Latches every counter rule's current raw total so evaluation sees only
  // increments that happen after this call. Call once, immediately before
  // the slot loop starts (after any resume-time counter bumps).
  void rebase(const Registry& registry);

  // Evaluates every rule against `registry` for the slot that just
  // completed, updating debounce state and emitting alert_fire /
  // alert_clear slot events into `journal` (may be null). Call at every
  // slot boundary, in slot order.
  void evaluate(const Registry& registry, int slot, EventJournal* journal);

  // Live alert state, for /healthz and the run summary.
  int firing() const;
  int critical_firing() const;
  std::uint64_t total_fires() const { return total_fires_; }

  // Checkpoint round trip. restore() throws gc::CheckError when the state
  // was recorded under a different rule set (rules_hash mismatch).
  AlertEngineState state() const;
  void restore(const AlertEngineState& state);

 private:
  struct RuleState {
    const Counter* counter = nullptr;  // resolved lazily from the registry
    const Gauge* gauge = nullptr;
    double prev_raw = 0.0;  // counter raw total at the last observation
    double cum = 0.0;       // in-loop cumulative value
    std::uint32_t hold = 0;
    bool firing = false;
    std::deque<double> window;
  };

  void resolve(RuleState& rs, const AlertRule& rule,
               const Registry& registry) const;

  std::vector<AlertRule> rules_;
  std::vector<RuleState> states_;
  std::uint64_t total_fires_ = 0;
};

}  // namespace gc::obs
