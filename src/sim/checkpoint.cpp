#include "sim/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "obs/events.hpp"
#include "util/fsio.hpp"

namespace gc::sim {

namespace {

[[noreturn]] void corrupt(const std::string& msg) { throw CheckpointError(msg); }

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over the payload bytes: cheap,
// table-driven, and catches the single-bit flips and truncations the fuzz
// tests inject. Not cryptographic — the threat model is storage rot, not
// an adversary.
std::uint32_t crc32(std::string_view data) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data)
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

// The payload codec. One field list (`fields` below) defines the format;
// Writer walks it appending to a string, Reader walks it as a bounds-checked
// cursor over the loaded bytes. Fields are fixed-width little-endian, doubles
// as their IEEE-754 bit patterns (so the round trip is bit-exact), and every
// variable-length section is a u64 count followed by its elements.
class Writer {
 public:
  static constexpr bool kReading = false;

  std::string out;

  template <class T>
  void u32(const T& v) { le(static_cast<std::uint32_t>(v), 4); }
  template <class T>
  void u64(const T& v) { le(static_cast<std::uint64_t>(v), 8); }
  template <class T>
  void i64(const T& v) {
    le(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)), 8);
  }
  void f64(double v) { le(std::bit_cast<std::uint64_t>(v), 8); }
  void count(std::uint64_t n, std::uint64_t /*cap*/, std::size_t /*bytes*/,
             const char* /*what*/) {
    u64(n);
  }
  void blob(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    out.append(reinterpret_cast<const char*>(v.data()), v.size());
  }

 private:
  void le(std::uint64_t v, int bytes) {
    char b[8];
    for (int i = 0; i < bytes; ++i)
      b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out.append(b, static_cast<std::size_t>(bytes));
  }
};

class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(std::string_view in) : in_(in) {}

  template <class T>
  void u32(T& v) { v = static_cast<T>(le(4)); }
  template <class T>
  void u64(T& v) { v = static_cast<T>(le(8)); }
  template <class T>
  void i64(T& v) { v = static_cast<T>(static_cast<std::int64_t>(le(8))); }
  void f64(double& v) { v = std::bit_cast<double>(le(8)); }
  // A section's element count: at most `cap`, and no more elements of at
  // least `bytes` bytes each than the input still holds — checked before
  // the caller allocates, so a damaged count cannot ask for gigabytes.
  void count(std::uint64_t& n, std::uint64_t cap, std::size_t bytes,
             const char* what) {
    n = le(8);
    if (n > cap) corrupt(what);
    if (n > in_.size() / bytes) corrupt("checkpoint truncated");
  }
  void blob(std::vector<std::uint8_t>& v) {
    std::uint64_t n = 0;
    count(n, 1ull << 28, 1, "checkpoint byte-blob size implausible");
    const std::string_view b = take(static_cast<std::size_t>(n));
    v.assign(b.begin(), b.end());
  }

  std::string_view take(std::size_t n) {
    if (n > in_.size()) corrupt("checkpoint truncated");
    const std::string_view b = in_.substr(0, n);
    in_.remove_prefix(n);
    return b;
  }
  bool done() const { return in_.empty(); }

 private:
  std::uint64_t le(int bytes) {
    const std::string_view b = take(static_cast<std::size_t>(bytes));
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i]))
           << (8 * i);
    return v;
  }

  std::string_view in_;
};

// A counted section: `bytes` is each element's smallest encoding.
template <class Io, class V, class Each>
void list(Io& io, V& v, std::uint64_t cap, std::size_t bytes,
          const char* what, Each each) {
  std::uint64_t n = v.size();
  io.count(n, cap, bytes, what);
  if constexpr (Io::kReading) v.resize(static_cast<std::size_t>(n));
  for (auto& x : v) each(x);
}

template <class Io, class V>
void vec(Io& io, V& v) {
  list(io, v, 1ull << 32, 8, "checkpoint vector size implausible",
       [&](auto& x) { io.f64(x); });
}

template <class Io>
void points(Io& io, std::vector<net::Vec2>& v) {
  list(io, v, 1ull << 24, 16, "checkpoint user count implausible",
       [&](net::Vec2& p) {
         io.f64(p.x);
         io.f64(p.y);
       });
}

template <class Io>
void rng(Io& io, RngState& r) {
  for (std::uint64_t& s : r.s) io.u64(s);
  io.u64(r.seed);
}

// The accumulators live behind accessors, so each direction goes its way.
template <class Io>
void time_average(Io& io, TimeAverage& t) {
  double sum = t.sum();
  std::int64_t slots = t.slots();
  io.f64(sum);
  io.i64(slots);
  if constexpr (Io::kReading) t.restore(sum, slots);
}

template <class Io>
void tracker(Io& io, StabilityTracker& t) {
  double abs_sum = t.abs_sum();
  double sup = t.sup_partial_average();
  io.f64(abs_sum);
  io.f64(sup);
  if constexpr (Io::kReading) {
    std::vector<double> partial;
    vec(io, partial);
    t.restore(abs_sum, sup, std::move(partial));
  } else {
    vec(io, t.partial_averages());
  }
}

// The checkpoint payload, field by field: the one definition of the format
// (docs/ROBUSTNESS.md "Format"). A Writer only reads `c`.
template <class Io>
void fields(Io& io, Checkpoint& c) {
  io.u64(c.scenario_hash);
  io.u64(c.scenario_structural_hash);
  io.i64(c.next_slot);
  rng(io, c.input_rng);
  io.f64(c.last_grid_j);
  vec(io, c.q);
  vec(io, c.gq);
  vec(io, c.battery_capacity_j);
  vec(io, c.battery_level_j);

  Metrics& m = c.metrics;
  vec(io, m.cost);
  vec(io, m.grid_j);
  vec(io, m.q_bs);
  vec(io, m.q_users);
  vec(io, m.battery_bs_j);
  vec(io, m.battery_users_j);
  time_average(io, m.cost_avg);
  tracker(io, m.q_total_stability);
  tracker(io, m.h_total_stability);
  io.f64(m.total_demand_shortfall);
  io.f64(m.total_unserved_energy_j);
  io.f64(m.total_curtailed_j);
  io.f64(m.total_delivered_packets);
  io.f64(m.total_admitted_packets);
  io.f64(m.total_offered_packets);
  io.i64(m.slots);
  io.f64(m.timing.s1_s);
  io.f64(m.timing.s2_s);
  io.f64(m.timing.s3_s);
  io.f64(m.timing.s4_s);
  io.f64(m.timing.step_s);

  io.u32(c.has_mobility);
  if (c.has_mobility) {
    points(io, c.mobility.targets);
    vec(io, c.mobility.speeds_mps);
    rng(io, c.mobility.rng);
    points(io, c.user_positions);
    if (Io::kReading &&
        c.user_positions.size() != c.mobility.targets.size())
      corrupt("checkpoint mobility/position arity mismatch");
  }

  io.u32(c.has_audit);
  if (c.has_audit) {
    obs::AuditorState& a = c.audit;
    io.i64(a.slots);
    io.f64(a.cost_sum);
    io.f64(a.prev_lyapunov);
    io.u32(a.have_prev_lyapunov);
    io.i64(a.total_q_violations);
    io.i64(a.total_z_violations);
    io.i64(a.total_drift_violations);
    io.i64(a.unstable_windows);
    io.f64(a.run_worst_q_margin);
    io.f64(a.run_worst_z_margin);
    io.i64(a.window_fill);
    io.i64(a.closed_windows);
    io.f64(a.window_backlog_sum);
    io.f64(a.window_cost_sum);
    io.f64(a.prev_window_backlog_mean);
    io.f64(a.prev_window_cost_mean);
    io.u32(a.have_prev_window);
    io.f64(a.window_cost_delta);
  }

  io.u32(c.has_policy);
  if (c.has_policy) {
    policy::SleepControllerState& p = c.policy_state;
    std::uint64_t n_bs = p.mode.size();
    io.count(n_bs, 1ull << 24, 4 + 8 + 8,
             "checkpoint policy BS count implausible");
    if constexpr (Io::kReading) {
      p.mode.resize(static_cast<std::size_t>(n_bs));
      p.dwell.resize(static_cast<std::size_t>(n_bs));
      p.wake_countdown.resize(static_cast<std::size_t>(n_bs));
    }
    GC_CHECK(p.dwell.size() == n_bs && p.wake_countdown.size() == n_bs);
    for (std::size_t i = 0; i < p.mode.size(); ++i) {
      std::uint32_t mode = p.mode[i];
      io.u32(mode);
      if (Io::kReading && mode > 2)
        corrupt("checkpoint policy mode out of range");
      if constexpr (Io::kReading) p.mode[i] = static_cast<std::uint8_t>(mode);
      io.i64(p.dwell[i]);
      io.i64(p.wake_countdown[i]);
    }
    io.u64(p.switches);
    io.f64(p.switch_energy_j);
    io.u64(p.sleep_slots);
  }

  io.u32(c.has_alerts);
  if (c.has_alerts) {
    obs::AlertEngineState& a = c.alert_state;
    io.u64(a.rules_hash);
    io.u64(a.total_fires);
    list(io, a.rules, 1ull << 16, 8 + 4 + 4 + 8,
         "checkpoint alert rule count implausible",
         [&](obs::AlertEngineState::Rule& r) {
           io.f64(r.cum);
           io.u32(r.hold);
           io.u32(r.firing);
           vec(io, r.window);
         });
  }
}

// Header: 8B magic + 4B version + 8B payload size + 4B payload CRC-32.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 4;
constexpr std::string_view kMagic(kCheckpointMagic, 8);

}  // namespace

Checkpoint make_checkpoint(int next_slot, const Rng& input_rng,
                           const core::LyapunovController& controller,
                           const Metrics& metrics,
                           const RandomWaypoint* mobility,
                           const net::Topology* topology,
                           const obs::StabilityAuditor* auditor,
                           const policy::SleepController* sleep,
                           const obs::AlertEngine* alerts) {
  GC_CHECK(next_slot >= 0);
  GC_CHECK((mobility == nullptr) == (topology == nullptr));
  const core::NetworkState& state = controller.state();
  const core::NetworkModel& model = state.model();
  const int n = model.num_nodes();
  const int S = model.num_sessions();

  Checkpoint c;
  c.next_slot = next_slot;
  c.input_rng = input_rng.state();
  c.last_grid_j = controller.last_grid_j();
  c.q.reserve(static_cast<std::size_t>(n) * S);
  for (int i = 0; i < n; ++i)
    for (int s = 0; s < S; ++s) c.q.push_back(state.q(i, s));
  c.gq.reserve(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      c.gq.push_back(i == j ? 0.0 : state.g_queue(i, j));
  c.battery_capacity_j.reserve(static_cast<std::size_t>(n));
  c.battery_level_j.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    c.battery_capacity_j.push_back(state.battery_capacity_j(i));
    c.battery_level_j.push_back(state.battery_j(i));
  }
  c.metrics = metrics;
  if (mobility != nullptr) {
    c.has_mobility = true;
    c.mobility = mobility->snapshot();
    const int first_user = topology->num_base_stations();
    for (int u = 0; u < topology->num_users(); ++u)
      c.user_positions.push_back(topology->position(first_user + u));
  }
  if (auditor != nullptr) {
    c.has_audit = true;
    c.audit = auditor->state_snapshot();
  }
  if (sleep != nullptr) {
    c.has_policy = true;
    c.policy_state = sleep->snapshot();
  }
  if (alerts != nullptr) {
    c.has_alerts = true;
    c.alert_state = alerts->state();
  }
  return c;
}

void restore_checkpoint(const Checkpoint& checkpoint, Rng& input_rng,
                        core::LyapunovController& controller,
                        Metrics& metrics, RandomWaypoint* mobility,
                        net::Topology* topology,
                        obs::StabilityAuditor* auditor,
                        policy::SleepController* sleep,
                        obs::AlertEngine* alerts) {
  core::NetworkState& state = controller.mutable_state();
  const core::NetworkModel& model = state.model();
  const int n = model.num_nodes();
  const int S = model.num_sessions();
  // A mismatch refuses the resume with a plain message (CheckpointError).
  if (static_cast<int>(checkpoint.q.size()) != n * S ||
      static_cast<int>(checkpoint.gq.size()) != n * n ||
      static_cast<int>(checkpoint.battery_capacity_j.size()) != n ||
      static_cast<int>(checkpoint.battery_level_j.size()) != n)
    throw CheckpointError(
        "checkpoint does not match the model (node/session arity)");
  if (checkpoint.has_mobility != (mobility != nullptr))
    throw CheckpointError(
        "checkpoint mobility presence does not match the run");
  if (checkpoint.has_policy != (sleep != nullptr))
    throw CheckpointError(
        "checkpoint sleep-policy presence does not match the run (resume "
        "with the same --policy the checkpoint was written under)");

  input_rng.set_state(checkpoint.input_rng);
  controller.set_last_grid_j(checkpoint.last_grid_j);
  state.set_slot(checkpoint.next_slot);
  for (int i = 0; i < n; ++i)
    for (int s = 0; s < S; ++s)
      state.set_q(i, s, checkpoint.q[static_cast<std::size_t>(i) * S + s]);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      state.set_g_queue(i, j,
                        checkpoint.gq[static_cast<std::size_t>(i) * n + j]);
    }
  for (int i = 0; i < n; ++i) {
    state.set_battery_capacity_j(i, checkpoint.battery_capacity_j[i]);
    state.restore_battery_level_j(i, checkpoint.battery_level_j[i]);
  }
  metrics = checkpoint.metrics;
  if (mobility != nullptr) {
    GC_CHECK(topology != nullptr);
    mobility->restore(checkpoint.mobility);
    const int first_user = topology->num_base_stations();
    if (static_cast<int>(checkpoint.user_positions.size()) !=
        topology->num_users())
      throw CheckpointError("checkpoint user-position arity mismatch");
    topology->set_positions(first_user, checkpoint.user_positions);
  }
  if (auditor != nullptr && checkpoint.has_audit)
    auditor->restore(checkpoint.audit);
  if (sleep != nullptr) sleep->restore(checkpoint.policy_state);
  if (alerts != nullptr && checkpoint.has_alerts)
    alerts->restore(checkpoint.alert_state);
}

void save_checkpoint(const Checkpoint& checkpoint, const std::string& path) {
  Writer w;
  w.out.resize(kHeaderBytes);  // filled in once the payload is known
  fields(w, const_cast<Checkpoint&>(checkpoint));
  const std::string_view payload = std::string_view(w.out).substr(kHeaderBytes);
  Writer header;
  header.out = kMagic;
  header.u32(kCheckpointVersion);
  header.u64(payload.size());
  header.u32(crc32(payload));
  w.out.replace(0, kHeaderBytes, header.out);
  util::write_file_atomic(path, w.out, "checkpoint");
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) corrupt("cannot open checkpoint " + path);
  std::string data(static_cast<std::size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  if (!in.good()) corrupt("cannot read checkpoint " + path);
  in.close();

  if (data.size() < kHeaderBytes) corrupt("checkpoint truncated in " + path);
  Reader header(data);
  if (header.take(kMagic.size()) != kMagic)
    corrupt("bad checkpoint magic in " + path);
  std::uint32_t version = 0;
  header.u32(version);
  if (version != kCheckpointVersion)
    corrupt("unsupported checkpoint version " + std::to_string(version) +
            " in " + path + " (this build reads v" +
            std::to_string(kCheckpointVersion) +
            " only; v6 carries an LP warm-start section this build no "
            "longer reads, and older checkpoints lack the CRC, "
            "structural-hash, auditor, sleep-policy and alert-state "
            "fields — re-run from slot 0)");
  std::uint64_t payload_size = 0;
  std::uint32_t stored_crc = 0;
  header.u64(payload_size);
  header.u32(stored_crc);
  const std::string_view payload = std::string_view(data).substr(kHeaderBytes);
  if (payload.size() != payload_size)
    corrupt("checkpoint payload size mismatch in " + path + " (header says " +
            std::to_string(payload_size) + " bytes, file holds " +
            std::to_string(payload.size()) + ")");
  if (crc32(payload) != stored_crc)
    corrupt("checkpoint CRC mismatch in " + path +
            " (payload is corrupt — bit rot or torn write)");

  Reader body(payload);
  Checkpoint c;
  try {
    fields(body, c);
  } catch (const CheckpointError&) {
    throw;
  } catch (const CheckError& e) {
    corrupt(std::string(e.what()) + " in " + path);
  }
  // The format is fully self-describing; trailing bytes mean corruption.
  if (!body.done()) corrupt("trailing bytes after checkpoint in " + path);
  return c;
}

// ---- Generations -----------------------------------------------------

namespace {

std::string generation_file(const std::string& base, std::int64_t gen) {
  return base + ".gen" + std::to_string(gen);
}

}  // namespace

std::vector<GenerationInfo> list_generations(const std::string& base) {
  const std::filesystem::path base_path(base);
  std::filesystem::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = base_path.filename().string() + ".gen";
  std::vector<GenerationInfo> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix))
      continue;
    const std::string suffix = name.substr(prefix.size());
    if (suffix.find_first_not_of("0123456789") != std::string::npos) continue;
    GenerationInfo g;
    g.generation = std::strtoll(suffix.c_str(), nullptr, 10);
    g.file = entry.path().string();
    out.push_back(g);
  }
  std::sort(out.begin(), out.end(),
            [](const GenerationInfo& a, const GenerationInfo& b) {
              return a.generation < b.generation;
            });
  return out;
}

std::optional<ResumeSelection> load_newest_valid(const std::string& base) {
  const std::vector<GenerationInfo> gens = list_generations(base);
  if (gens.empty()) return std::nullopt;
  ResumeSelection sel;
  std::string newest_error;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    try {
      sel.checkpoint = load_checkpoint(it->file);
      sel.source = *it;
      return sel;
    } catch (const CheckpointError& e) {
      if (newest_error.empty()) newest_error = e.what();
      ++sel.skipped_corrupt;
    }
  }
  corrupt("all " + std::to_string(gens.size()) +
          " checkpoint generations of " + base +
          " are corrupt; newest error: " + newest_error);
}

int auto_resume_slot(const std::string& base) {
  const std::optional<ResumeSelection> sel = load_newest_valid(base);
  return sel.has_value() ? sel->checkpoint.next_slot : 0;
}

RobustMetrics& robust_metrics() {
  static thread_local RobustMetrics m;
  return m;
}

int resume_run(const SimOptions& options, int slots, Rng& input_rng,
               core::LyapunovController& controller, Metrics& metrics,
               RandomWaypoint* mobility, net::Topology* topology,
               obs::StabilityAuditor* auditor, policy::SleepController* sleep) {
  if (options.resume_path.empty()) return 0;
  const std::optional<ResumeSelection> sel =
      load_newest_valid(options.resume_path);
  if (!sel.has_value()) {
    if (options.resume_auto) return 0;
    throw CheckpointError("no checkpoint found at " + options.resume_path);
  }
  const Checkpoint& checkpoint = sel->checkpoint;
  const std::string& source = sel->source.file;
  if (sel->skipped_corrupt > 0)
    robust_metrics().fallbacks.add(sel->skipped_corrupt);
  if (options.allow_swapped_scenario) {
    // Hot-reload resume: the workload fields may have been swapped; only
    // the structural identity must survive.
    if (checkpoint.scenario_structural_hash !=
        options.scenario_structural_hash)
      throw CheckpointError(
          "checkpoint " + source + " has structural scenario hash " +
          hex(checkpoint.scenario_structural_hash) +
          " but this run's scenario is structurally " +
          hex(options.scenario_structural_hash) +
          "; only traffic/tariff fields may be swapped at a resume "
          "boundary");
  } else if (checkpoint.scenario_hash != options.scenario_hash) {
    throw CheckpointError(
        "checkpoint " + source + " was written for scenario hash " +
        hex(checkpoint.scenario_hash) + " but this run is scenario hash " +
        hex(options.scenario_hash) +
        "; resuming under a different scenario spec is refused "
        "(rebuild the checkpoint or match specs)");
  }
  restore_checkpoint(checkpoint, input_rng, controller, metrics, mobility,
                     topology, auditor, sleep, options.alerts);
  const int start_slot = checkpoint.next_slot;
  if (start_slot > slots)
    throw CheckpointError("checkpoint at slot " + std::to_string(start_slot) +
                          " is beyond the horizon " + std::to_string(slots));
  robust_metrics().resumes.add();
  robust_metrics().resumed_slot.set(start_slot);
  // Lifecycle event (no seq, so the slot-event stream stays byte-identical
  // to an uninterrupted run's): a newer generation had to be skipped as
  // corrupt to resume here.
  if (sel->skipped_corrupt > 0 && options.events != nullptr)
    options.events->emit_lifecycle(obs::EventKind::kCheckpointFallback,
                                   start_slot, sel->skipped_corrupt, source);
  return start_slot;
}

void CheckpointRotator::write(const Checkpoint& checkpoint) const {
  const std::vector<GenerationInfo> gens = list_generations(base_);
  save_checkpoint(checkpoint,
                  generation_file(base_, gens.empty()
                                             ? 1
                                             : gens.back().generation + 1));
  // Save before prune: a crash between the two leaves an extra file on
  // disk, never fewer than one good generation.
  const std::size_t keep_old = kCheckpointGenerations - 1;
  for (std::size_t i = 0; i + keep_old < gens.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(gens[i].file, ec);  // best-effort
  }
}

}  // namespace gc::sim
