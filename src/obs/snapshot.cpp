#include "obs/snapshot.hpp"

#include <cstdio>
#include <utility>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"

namespace gc::obs {

namespace {

struct SnapMetrics {
  Counter& writes = registry().counter("snap.writes");
  Histogram& write_seconds = registry().histogram("snap.write_seconds");
};

SnapMetrics& metrics() {
  static thread_local SnapMetrics m;
  return m;
}

void append_num(std::string& s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
}

void append_field(std::string& s, const char* key, double v,
                  bool first = false) {
  if (!first) s += ',';
  s += '"';
  s += key;
  s += "\":";
  append_num(s, v);
}

// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted names
// map onto gc_<name with dots as underscores>.
std::string prom_name(const std::string& name) {
  std::string out = "gc_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void prom_line(std::string& s, const std::string& name, double v,
               const char* labels = "") {
  s += name;
  s += labels;
  s += ' ';
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
  s += '\n';
}

// Every Prometheus family is announced with # HELP and # TYPE before its
// sample lines — strict scrapers (and promtool check metrics) reject
// families without them.
void prom_family(std::string& s, const std::string& name, const char* help,
                 const char* type) {
  s += "# HELP ";
  s += name;
  s += ' ';
  s += help;
  s += '\n';
  s += "# TYPE ";
  s += name;
  s += ' ';
  s += type;
  s += '\n';
}

void prom_scalar(std::string& s, const std::string& name, const char* help,
                 const char* type, double v) {
  prom_family(s, name, help, type);
  prom_line(s, name, v);
}

std::string render_json(const SnapshotData& d) {
  std::string s;
  s.reserve(4096);
  s += "{";
  append_field(s, "slot", d.slot, /*first=*/true);
  append_field(s, "total_slots", d.total_slots);
  append_field(s, "wall_s", d.wall_s);
  append_field(s, "slots_per_s", d.slots_per_s);
  append_field(s, "eta_s", d.eta_s);
  s += ",\"scenario\":{\"name\":\"";
  s += json_escape(d.scenario_name);
  s += "\",\"hash\":\"0x";
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(d.scenario_hash));
  s += buf;
  s += "\"}";
  if (d.have_aggregates) {
    s += ",\"aggregates\":{";
    append_field(s, "q_total_packets", d.q_total_packets, /*first=*/true);
    append_field(s, "h_total", d.h_total);
    append_field(s, "battery_total_j", d.battery_total_j);
    append_field(s, "cost_last", d.cost_last);
    append_field(s, "cost_time_avg", d.cost_time_avg);
    append_field(s, "grid_total_j", d.grid_total_j);
    s += "}";
  }
  if (d.have_stability) {
    s += ",\"stability\":{";
    append_field(s, "worst_q_margin", d.worst_q_margin, /*first=*/true);
    append_field(s, "worst_z_margin_j", d.worst_z_margin_j);
    append_field(s, "q_violations", d.q_violations);
    append_field(s, "z_violations", d.z_violations);
    append_field(s, "drift_violations", d.drift_violations);
    append_field(s, "unstable_windows", d.unstable_windows);
    s += "}";
  }
  if (d.policy_awake_bs >= 0) {
    s += ",\"policy\":{";
    append_field(s, "awake_bs", d.policy_awake_bs, /*first=*/true);
    append_field(s, "switches", d.policy_switches);
    append_field(s, "switch_energy_j", d.policy_switch_energy_j);
    append_field(s, "sleep_slots", d.policy_sleep_slots);
    s += "}";
  }
  if (d.registry != nullptr) {
    s += ",\"registry\":{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : d.registry->counters()) {
      if (!first) s += ',';
      first = false;
      s += '"';
      s += json_escape(name);
      s += "\":{";
      append_field(s, "total", c->total(), /*first=*/true);
      append_field(s, "events", static_cast<double>(c->events()));
      s += '}';
    }
    s += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : d.registry->gauges()) {
      if (!first) s += ',';
      first = false;
      s += '"';
      s += json_escape(name);
      s += "\":";
      append_num(s, g->value());
    }
    s += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : d.registry->histograms()) {
      if (!first) s += ',';
      first = false;
      s += '"';
      s += json_escape(name);
      s += "\":{";
      append_field(s, "count", static_cast<double>(h->count()),
                   /*first=*/true);
      append_field(s, "sum", h->sum());
      append_field(s, "min", h->min());
      append_field(s, "max", h->max());
      append_field(s, "mean", h->mean());
      append_field(s, "p50", h->quantile(0.5));
      append_field(s, "p95", h->quantile(0.95));
      append_field(s, "p99", h->quantile(0.99));
      s += '}';
    }
    s += "}}";
  }
  s += "}\n";
  return s;
}

std::string render_prom(const SnapshotData& d) {
  std::string s;
  s.reserve(4096);
  s += "# greencell live snapshot (Prometheus text exposition format)\n";
  prom_scalar(s, "gc_snapshot_slot", "completed slots", "gauge", d.slot);
  prom_scalar(s, "gc_snapshot_total_slots", "run horizon in slots", "gauge",
              d.total_slots);
  prom_scalar(s, "gc_snapshot_wall_seconds", "wall time since run start",
              "gauge", d.wall_s);
  prom_scalar(s, "gc_snapshot_slots_per_second", "recent throughput",
              "gauge", d.slots_per_s);
  prom_scalar(s, "gc_snapshot_eta_seconds",
              "remaining wall time at the current rate", "gauge", d.eta_s);
  if (d.have_aggregates) {
    prom_scalar(s, "gc_snapshot_backlog_packets",
                "total data-queue backlog", "gauge", d.q_total_packets);
    prom_scalar(s, "gc_snapshot_virtual_queue_sum",
                "virtual (battery) queue sum", "gauge", d.h_total);
    prom_scalar(s, "gc_snapshot_battery_joules", "total stored energy",
                "gauge", d.battery_total_j);
    prom_scalar(s, "gc_snapshot_cost_last", "grid cost of the last slot",
                "gauge", d.cost_last);
    prom_scalar(s, "gc_snapshot_cost_time_avg", "running time-average cost",
                "gauge", d.cost_time_avg);
    prom_scalar(s, "gc_snapshot_grid_joules_total",
                "cumulative grid energy drawn", "counter", d.grid_total_j);
  }
  if (d.have_stability) {
    prom_scalar(s, "gc_stability_worst_q_margin",
                "worst Lemma-1 data-queue bound margin", "gauge",
                d.worst_q_margin);
    prom_scalar(s, "gc_stability_worst_z_margin_joules",
                "worst Lemma-1 virtual-queue bound margin", "gauge",
                d.worst_z_margin_j);
    prom_scalar(s, "gc_stability_q_violations_total",
                "data-queue bound violations", "counter", d.q_violations);
    prom_scalar(s, "gc_stability_z_violations_total",
                "virtual-queue bound violations", "counter",
                d.z_violations);
    prom_scalar(s, "gc_stability_drift_violations_total",
                "drift-plus-penalty bound violations", "counter",
                d.drift_violations);
    prom_scalar(s, "gc_stability_unstable_windows_total",
                "audit windows flagged unstable", "counter",
                d.unstable_windows);
  }
  if (d.policy_awake_bs >= 0) {
    prom_scalar(s, "gc_policy_awake_bs", "base stations currently awake",
                "gauge", d.policy_awake_bs);
    prom_scalar(s, "gc_policy_switches_total",
                "cumulative sleep/wake commands", "counter",
                d.policy_switches);
    prom_scalar(s, "gc_policy_switch_energy_joules_total",
                "cumulative switching energy charged", "counter",
                d.policy_switch_energy_j);
    prom_scalar(s, "gc_policy_sleep_slots_total",
                "cumulative BS-slots spent asleep", "counter",
                d.policy_sleep_slots);
  }
  if (d.registry != nullptr) {
    for (const auto& [name, c] : d.registry->counters()) {
      const std::string n = prom_name(name) + "_total";
      prom_family(s, n, ("registry counter " + name).c_str(), "counter");
      prom_line(s, n, c->total());
    }
    for (const auto& [name, g] : d.registry->gauges()) {
      const std::string n = prom_name(name);
      prom_family(s, n, ("registry gauge " + name).c_str(), "gauge");
      prom_line(s, n, g->value());
    }
    for (const auto& [name, h] : d.registry->histograms()) {
      const std::string n = prom_name(name);
      prom_family(s, n, ("registry histogram " + name).c_str(), "histogram");
      for (const auto& [upper, cumulative] : h->cumulative_buckets()) {
        char labels[48];
        std::snprintf(labels, sizeof labels, "{le=\"%.9g\"}", upper);
        prom_line(s, n + "_bucket", static_cast<double>(cumulative), labels);
      }
      prom_line(s, n + "_bucket", static_cast<double>(h->count()),
                "{le=\"+Inf\"}");
      prom_line(s, n + "_sum", h->sum());
      prom_line(s, n + "_count", static_cast<double>(h->count()));
    }
  }
  return s;
}

}  // namespace

std::string render_snapshot_json(const SnapshotData& data) {
  return render_json(data);
}

std::string render_snapshot_prom(const SnapshotData& data) {
  return render_prom(data);
}

std::string render_healthz_json(const HealthzData& d) {
  char rate[32];
  std::snprintf(rate, sizeof rate, "%.6g", d.slots_per_s);
  std::string h = "{\"status\":\"";
  h += d.healthy ? "ok" : "alerting";
  h += "\",\"slot\":" + std::to_string(d.slot);
  h += ",\"total_slots\":" + std::to_string(d.total_slots);
  h += ",\"slots_per_s\":";
  h += rate;
  h += ",\"checkpoint_age_slots\":" + std::to_string(d.checkpoint_age_slots);
  h += ",\"restarts\":" + std::to_string(d.restarts);
  h += ",\"alerts_firing\":" + std::to_string(d.alerts_firing);
  h += ",\"critical_firing\":" + std::to_string(d.critical_firing);
  h += "}\n";
  return h;
}

double SlotRate::observe(int completed_slots, double now_s) {
  if (last_slots_ >= 0 && completed_slots <= last_slots_) return ema_;
  if (last_slots_ >= 0 && now_s > last_s_) {
    const double inst = (completed_slots - last_slots_) / (now_s - last_s_);
    ema_ = ema_ == 0.0 ? inst : 0.2 * inst + 0.8 * ema_;
  }
  last_slots_ = completed_slots;
  last_s_ = now_s;
  return ema_;
}

SnapshotWriter::SnapshotWriter(std::string path, int every_slots)
    : path_(std::move(path)), every_(every_slots) {
  GC_CHECK_MSG(!path_.empty(), "snapshot path must not be empty");
  GC_CHECK_MSG(every_ >= 0, "snapshot cadence must be >= 0 slots");
}

void SnapshotWriter::write(const SnapshotData& data) {
  SnapMetrics& m = metrics();
  Span timer(nullptr, m.write_seconds);
  util::write_file_atomic(path_, render_json(data), "snapshot");
  util::write_file_atomic(prom_path(), render_prom(data), "snapshot");
  m.writes.add();
}

}  // namespace gc::obs
