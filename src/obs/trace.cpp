#include "obs/trace.hpp"

#include <cstdio>

namespace gc::obs {

namespace {

void append_num(std::string& s, double v) {
  // 17 significant digits: doubles survive the write/parse round trip
  // bit-exactly, so traced series can be compared against in-memory ones.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
}

void append_field(std::string& s, const char* key, double v, bool first = false) {
  if (!first) s += ',';
  s += '"';
  s += key;
  s += "\":";
  append_num(s, v);
}

}  // namespace

TraceSink::TraceSink(const std::string& path, int resume_slot)
    : out_(path, "t", resume_slot, "trace file") {}

void TraceSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
}

void TraceSink::write_header(const std::string& scenario_name,
                             std::uint64_t scenario_hash) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string& s = line_;
  s.clear();
  s += "{\"scenario\":{\"name\":\"";
  // Scenario names are restricted to JSON-safe characters by the scenario
  // parser, but escape the two structural ones defensively.
  for (char c : scenario_name) {
    if (c == '"' || c == '\\') s += '\\';
    s += c;
  }
  s += "\",\"hash\":\"0x";
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(scenario_hash));
  s += buf;
  s += "\"}}";
  out_.write_line(s);
}

void TraceSink::write(const TraceRecord& r) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string& s = line_;
  s.clear();
  s += "{\"t\":";
  append_num(s, r.slot);
  s += ",\"queues\":{";
  append_field(s, "q_bs", r.q_bs, /*first=*/true);
  append_field(s, "q_users", r.q_users);
  append_field(s, "h_total", r.h_total);
  append_field(s, "battery_bs_j", r.battery_bs_j);
  append_field(s, "battery_users_j", r.battery_users_j);
  s += "},\"energy\":{";
  append_field(s, "grid_j", r.grid_j, /*first=*/true);
  append_field(s, "cost", r.cost);
  append_field(s, "curtailed_j", r.curtailed_j);
  append_field(s, "unserved_j", r.unserved_j);
  s += "},\"decisions\":{";
  append_field(s, "admitted", r.admitted_packets, /*first=*/true);
  append_field(s, "delivered", r.delivered_packets);
  append_field(s, "shortfall", r.shortfall_packets);
  append_field(s, "links", r.scheduled_links);
  append_field(s, "routed", r.routed_packets);
  s += "},\"robust\":{";
  append_field(s, "fallbacks", r.fallbacks, /*first=*/true);
  append_field(s, "degraded", r.degraded ? 1.0 : 0.0);
  append_field(s, "faults", r.fault_events);
  s += "}";
  s += ",\"stability\":{";
  append_field(s, "lyapunov", r.lyapunov, /*first=*/true);
  append_field(s, "drift", r.drift);
  append_field(s, "dpp", r.dpp);
  append_field(s, "worst_q_margin", r.worst_q_margin);
  append_field(s, "worst_z_margin_j", r.worst_z_margin_j);
  append_field(s, "violations", r.stability_violations);
  append_field(s, "window_unstable", r.window_unstable ? 1.0 : 0.0);
  s += "}";
  if (r.has_policy) {
    s += ",\"policy\":{";
    append_field(s, "awake_bs", r.awake_bs, /*first=*/true);
    append_field(s, "asleep_bs", r.asleep_bs);
    append_field(s, "waking_bs", r.waking_bs);
    append_field(s, "switches", r.policy_switches);
    append_field(s, "switch_energy_j", r.switch_energy_j);
    s += "}";
  }
  s += ",\"top_backlog\":[";
  for (std::size_t i = 0; i < r.top_backlog.size(); ++i) {
    if (i) s += ',';
    s += "{\"node\":";
    append_num(s, r.top_backlog[i].first);
    s += ",\"packets\":";
    append_num(s, r.top_backlog[i].second);
    s += '}';
  }
  s += "]}";
  out_.write_line(s);
  ++records_;
}

}  // namespace gc::obs
