#include "obs/events.hpp"

#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace gc::obs {

namespace {

double wall_now_s() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

// Events mostly carry counts (fallback rungs dropped, restart ordinals,
// next checkpoint slots); print those as integers so the lines diff
// cleanly, falling back to round-trippable %.17g for real-valued payloads.
void append_value(std::string* out, double v) {
  char buf[32];
  if (std::floor(v) == v && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  *out += buf;
}

void render_event(std::string* line, bool lifecycle, std::uint64_t seq,
                  EventKind kind, int slot, double value,
                  const std::string& detail) {
  line->clear();
  if (lifecycle) {
    *line += "{\"kind\":\"";
    *line += event_kind_name(kind);
    *line += "\",\"at\":";
    *line += std::to_string(slot);
  } else {
    // "seq" first: resume-side recovery and the byte-compare tooling key on
    // the {"seq": prefix to tell slot events from lifecycle lines.
    *line += "{\"seq\":";
    *line += std::to_string(seq);
    *line += ",\"slot\":";
    *line += std::to_string(slot);
    *line += ",\"kind\":\"";
    *line += event_kind_name(kind);
    *line += '"';
  }
  *line += ",\"value\":";
  append_value(line, value);
  if (!detail.empty()) {
    *line += ",\"detail\":\"";
    *line += json_escape(detail);
    *line += '"';
  }
  // wall_s stays LAST so comparisons can strip everything from ,"wall_s":
  // to the closing brace and get deterministic bytes.
  char buf[40];
  std::snprintf(buf, sizeof buf, ",\"wall_s\":%.3f}", wall_now_s());
  *line += buf;
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kRestart: return "restart";
    case EventKind::kLpFallback: return "lp_fallback";
    case EventKind::kCheckpointWrite: return "checkpoint_write";
    case EventKind::kCheckpointFallback: return "checkpoint_fallback";
    case EventKind::kPolicySwitch: return "policy_switch";
    case EventKind::kBoundViolation: return "bound_violation";
    case EventKind::kHotReload: return "hot_reload";
    case EventKind::kAlertFire: return "alert_fire";
    case EventKind::kAlertClear: return "alert_clear";
  }
  return "unknown";
}

EventJournal::EventJournal(std::size_t ring_capacity)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

EventSinkResume EventJournal::open_sink(const std::string& path,
                                        int cut_slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  GC_CHECK_MSG(out_ == nullptr, "event journal sink is already open");

  // cut_slot < 0 = fresh run (wipe); >= 0 = resume, keeping every slot
  // event below the cut AND the lifecycle lines (no "slot" key) a
  // supervising parent appended — a crash before the first checkpoint
  // resumes from slot 0 with its restart line intact.
  out_ = std::make_unique<util::JsonlWriter>(path, "slot", cut_slot,
                                             "event journal");
  next_seq_ = 0;
  if (out_->appended()) {
    // Recover the sequence counter from the last surviving slot event.
    // Sequence numbers are dense from 0, so the last one + 1 is also the
    // count — but parsing the value tolerates journals that began life
    // mid-sequence (an operator-truncated file).
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("{\"seq\":", 0) != 0) continue;
      const char* p = line.c_str() + 7;
      char* end = nullptr;
      const unsigned long long seq = std::strtoull(p, &end, 10);
      if (end != p) next_seq_ = static_cast<std::uint64_t>(seq) + 1;
    }
  }
  return EventSinkResume{out_->cut(), next_seq_};
}

bool EventJournal::has_sink() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return out_ != nullptr;
}

void EventJournal::emit_line(const std::string& line) {
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(line);
  } else {
    ring_[static_cast<std::size_t>(ring_end_ % ring_capacity_)] = line;
  }
  ++ring_end_;
  if (out_ != nullptr) out_->write_line(line);
}

void EventJournal::emit_slot(EventKind kind, int slot, double value,
                             const std::string& detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  render_event(&line_, /*lifecycle=*/false, next_seq_, kind, slot, value,
               detail);
  ++next_seq_;
  emit_line(line_);
}

void EventJournal::emit_lifecycle(EventKind kind, int at_slot, double value,
                                  const std::string& detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  render_event(&line_, /*lifecycle=*/true, 0, kind, at_slot, value, detail);
  emit_line(line_);
}

void EventJournal::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (out_ != nullptr) out_->flush();
}

std::uint64_t EventJournal::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::vector<std::string> EventJournal::ring_since(std::uint64_t since,
                                                  std::uint64_t* next) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  const std::uint64_t begin =
      ring_end_ > ring_.size() ? ring_end_ - ring_.size() : 0;
  for (std::uint64_t c = since < begin ? begin : since; c < ring_end_; ++c)
    out.push_back(ring_[static_cast<std::size_t>(c % ring_capacity_)]);
  if (next != nullptr) *next = ring_end_;
  return out;
}

void append_lifecycle_event(const std::string& path, int cut_slot,
                            EventKind kind, int at_slot, double value,
                            const std::string& detail) {
  std::string line;
  render_event(&line, /*lifecycle=*/true, 0, kind, at_slot, value, detail);
  // INT_MAX: no slot is at or past the cut, so only a torn tail goes.
  util::JsonlWriter out(path, "slot", cut_slot < 0 ? INT_MAX : cut_slot,
                        "event journal");
  out.write_line(line);
  out.flush();
}

}  // namespace gc::obs
