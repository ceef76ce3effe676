#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace gc::obs {

namespace {

// Containment slack for floating-point start/duration arithmetic. The
// steady clock itself orders ctor/dtor reads correctly; only the
// start + dur rounding needs the slack.
constexpr double kEps = 1e-9;

void observe_dim(ProfileNode* n, std::int64_t dim) {
  if (dim < 0) return;
  if (n->dim_count == 0) {
    n->dim_min = n->dim_max = dim;
  } else {
    n->dim_min = std::min(n->dim_min, dim);
    n->dim_max = std::max(n->dim_max, dim);
  }
  ++n->dim_count;
  n->dim_sum += static_cast<double>(dim);
}

// total - children, clamped at zero (rounding can leave -1e-12s).
void finalize_self(ProfileNode* n) {
  double child_total = 0.0;
  for (auto& [name, child] : n->children) {
    (void)name;
    finalize_self(&child);
    child_total += child.total_s;
  }
  n->self_s = std::max(0.0, n->total_s - child_total);
}

}  // namespace

Profile build_profile(const std::vector<SpanEvent>& spans) {
  Profile p;
  p.root.name = "all";

  // Per-lane streams, each ordered (start asc, duration desc) so a parent
  // precedes its children even when a zero-length child shares its start.
  std::map<std::uint32_t, std::vector<const SpanEvent*>> lanes;
  for (const SpanEvent& e : spans) lanes[e.tid].push_back(&e);

  for (auto& [tid, lane] : lanes) {
    (void)tid;
    std::stable_sort(lane.begin(), lane.end(),
                     [](const SpanEvent* a, const SpanEvent* b) {
                       if (a->start_s != b->start_s)
                         return a->start_s < b->start_s;
                       return a->dur_s > b->dur_s;
                     });
    // Open-span stack: (end time, aggregation node). std::map children give
    // stable node addresses across later insertions.
    std::vector<std::pair<double, ProfileNode*>> stack;
    for (const SpanEvent* e : lane) {
      while (!stack.empty() && stack.back().first <= e->start_s + kEps)
        stack.pop_back();
      const double end_s = e->start_s + e->dur_s;
      ProfileNode* parent = &p.root;
      if (!stack.empty()) {
        if (end_s <= stack.back().first + kEps) {
          parent = stack.back().second;
        } else {
          // Straddles the enclosing span: its real parent was evicted from
          // the ring. Re-root and note the damage.
          ++p.orphans;
          stack.clear();
        }
      }
      ProfileNode& n = parent->children[e->name];
      if (n.name.empty()) n.name = e->name;
      ++n.count;
      n.total_s += e->dur_s;
      observe_dim(&n, e->dim);
      stack.emplace_back(end_s, &n);
    }
  }

  for (const auto& [name, child] : p.root.children) {
    (void)name;
    p.root.total_s += child.total_s;
    p.root.count += child.count;
  }
  finalize_self(&p.root);
  p.root.self_s = 0.0;  // the root is synthetic; all its time is children's
  return p;
}

namespace {

void append_num(std::string* body, const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, fmt, v);
  *body += buf;
}

void append_node_json(const ProfileNode& n, std::string* body) {
  *body += "{\"name\":\"" + json_escape(n.name) + "\",\"count\":";
  append_num(body, "%.0f", static_cast<double>(n.count));
  *body += ",\"total_s\":";
  append_num(body, "%.9f", n.total_s);
  *body += ",\"self_s\":";
  append_num(body, "%.9f", n.self_s);
  if (n.dim_count > 0) {
    *body += ",\"dim_count\":";
    append_num(body, "%.0f", static_cast<double>(n.dim_count));
    *body += ",\"dim_mean\":";
    append_num(body, "%.3f", n.dim_sum / static_cast<double>(n.dim_count));
    *body += ",\"dim_min\":";
    append_num(body, "%.0f", static_cast<double>(n.dim_min));
    *body += ",\"dim_max\":";
    append_num(body, "%.0f", static_cast<double>(n.dim_max));
  }
  if (!n.children.empty()) {
    *body += ",\"children\":[";
    bool first = true;
    for (const auto& [name, child] : n.children) {
      (void)name;
      if (!first) *body += ',';
      first = false;
      *body += '\n';
      append_node_json(child, body);
    }
    *body += ']';
  }
  *body += '}';
}

void append_collapsed(const ProfileNode& n, const std::string& prefix,
                      std::string* body) {
  const std::string path =
      prefix.empty() ? n.name : prefix + ";" + n.name;
  // Flamegraph value = self time in integer microseconds; sub-microsecond
  // residue is noise at the scales this repo profiles.
  const long long us = std::llround(n.self_s * 1e6);
  if (us > 0) {
    *body += path;
    *body += ' ';
    *body += std::to_string(us);
    *body += '\n';
  }
  for (const auto& [name, child] : n.children) {
    (void)name;
    append_collapsed(child, path, body);
  }
}

}  // namespace

std::string Profile::to_json() const {
  std::string body;
  body.reserve(4096);
  body += "{\"schema\":\"gc.profile.v1\",\"scenario\":\"" +
          json_escape(meta.scenario) + "\",\"nodes\":";
  append_num(&body, "%.0f", static_cast<double>(meta.nodes));
  body += ",\"links\":";
  append_num(&body, "%.0f", static_cast<double>(meta.links));
  body += ",\"links_pruned\":";
  append_num(&body, "%.0f", static_cast<double>(meta.links_pruned));
  body += ",\"sessions\":";
  append_num(&body, "%.0f", static_cast<double>(meta.sessions));
  body += ",\"slots\":";
  append_num(&body, "%.0f", static_cast<double>(meta.slots));
  body += ",\"wall_s\":";
  append_num(&body, "%.6f", meta.wall_s);
  body += ",\"slots_per_s\":";
  append_num(&body, "%.6f", meta.slots_per_s);
  body += ",\"spans_dropped\":";
  append_num(&body, "%.0f", static_cast<double>(meta.spans_dropped));
  if (!meta.policy.empty()) {
    body += ",\"policy\":{\"name\":\"" + json_escape(meta.policy) +
            "\",\"switches\":";
    append_num(&body, "%.0f", static_cast<double>(meta.policy_switches));
    body += ",\"switch_energy_j\":";
    append_num(&body, "%.6f", meta.policy_switch_energy_j);
    body += ",\"sleep_slots\":";
    append_num(&body, "%.0f", static_cast<double>(meta.policy_sleep_slots));
    body += "}";
  }
  body += ",\"orphans\":";
  append_num(&body, "%.0f", static_cast<double>(orphans));
  body += ",\"root\":\n";
  append_node_json(root, &body);
  body += "}\n";
  return body;
}

std::string Profile::to_collapsed() const {
  std::string body;
  body.reserve(4096);
  for (const auto& [name, child] : root.children) {
    (void)name;
    append_collapsed(child, root.name, &body);
  }
  return body;
}

}  // namespace gc::obs
