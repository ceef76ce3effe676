// Checkpoint/resume for crash-proof long runs (docs/ROBUSTNESS.md).
//
// A checkpoint captures everything the simulation loop conditions on:
//  * the next slot index to execute,
//  * the input RNG stream position (sample_inputs is a pure function of
//    (slot, seed) via Rng::fork, but the full state is saved so future
//    samplers that advance the stream stay correct),
//  * the controller's NetworkState (queues, virtual queues, per-battery
//    capacity + level — capacity matters under battery-fade faults) and its
//    P(t-1) memory,
//  * the accumulated Metrics (series, averages, stability trackers, totals;
//    no wall-clock time, so two runs of one build, or a resumed run and an
//    uninterrupted one, write byte-identical checkpoints),
//  * optionally the mobility walker (trips + RNG) and the user positions,
//  * optionally the StabilityAuditor's accumulated state, so a resumed
//    run's stability digest matches an uninterrupted run's,
//  * optionally the sleep-policy controller's mode state (src/policy:
//    per-BS mode, dwell and wake countdowns plus the switching counters),
//    so a killed + resumed run replays sleep/wake commands bit-identically.
//
//  * optionally the alert engine's debounce state (obs/alerts.hpp), so a
//    resumed run's fire/clear edges replay exactly.
//
// Serialization is a versioned binary format: the 8-byte magic "GCCKPT01",
// a u32 format version (currently 9), a u64 payload size, a CRC-32 of the
// payload, then the payload itself as fixed-width little-endian fields
// (doubles as their IEEE-754 bit patterns, so the round trip is bit-exact).
// The payload's field order is defined once, by the field list in
// checkpoint.cpp that both save and load walk. v3 added the size + CRC
// header, the structural scenario hash, and the auditor state; v4 the
// LP warm-start carry; v5 the sleep-policy state; v6 the alert-engine state
// (obs/alerts.hpp), so a resumed run's debounce counters and fire/clear
// edges replay exactly; v7 dropped the warm-start carry again (the solver
// keeps no state between solves); v8 dropped the Metrics wall-clock
// timing fields (wall time lives only in obs::Span's outputs); v9 stores
// only the virtual queues G_ij > 0, as (link, value) pairs, instead of
// the dense n x n table. Older files
// are refused loudly — re-run from slot 0 rather than resuming with
// silently missing state.
// save_checkpoint goes through util::write_file_atomic (temp file, fsync,
// rename, directory fsync), so neither a crash mid-write nor a power loss
// after the rename corrupts the previous checkpoint. Every load-time
// corruption (truncation, bit flip, wrong magic, trailing bytes, a length
// field larger than the bytes that follow) throws CheckpointError — a typed
// gc::CheckError — and never yields a partially loaded state.
//
// Generations: a run checkpointing to BASE writes BASE.gen<K> files with
// K one above the highest on disk (CheckpointRotator), so a restarted run
// never reuses a file, and keeps the newest kCheckpointGenerations.
// Generations are listed by scanning BASE's directory, never from an
// index that a crash could leave stale. load_newest_valid resolves a
// resume by trying the newest generation first and falling back to older
// ones when the tail is truncated or corrupt.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "net/topology.hpp"
#include "obs/alerts.hpp"
#include "obs/registry.hpp"
#include "obs/stability.hpp"
#include "policy/sleep.hpp"
#include "sim/mobility.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace gc::sim {

inline constexpr char kCheckpointMagic[9] = "GCCKPT01";
inline constexpr std::uint32_t kCheckpointVersion = 9;

// Load-time corruption (missing file, bad magic, unsupported version,
// truncation, CRC mismatch, trailing bytes), and every refusal to resume
// (restore_checkpoint's arity and presence checks, resume_run's hash
// and horizon checks), each with a plain message. A CheckError subtype so
// existing catch sites keep working, while rotation fallback can
// distinguish "this generation is damaged, try an older one" from
// programming errors.
class CheckpointError : public CheckError {
  using CheckError::CheckError;
};

struct Checkpoint {
  int next_slot = 0;  // first slot the resumed run executes
  // Scenario identity hash (src/scenario); 0 for runs without a scenario
  // spec. resume_run refuses to resume when it differs from the run's.
  std::uint64_t scenario_hash = 0;
  // Structural subset of the scenario hash (scenario_structural_hash):
  // what must match for a hot-reloaded scenario to resume this state.
  std::uint64_t scenario_structural_hash = 0;
  RngState input_rng;
  double last_grid_j = 0.0;  // controller's P(t-1) memory

  // NetworkState.
  std::vector<double> q;                   // N x S row-major
  std::vector<core::GEntry> gq;            // G_ij > 0, ascending by link
  std::vector<double> battery_capacity_j;  // N (differs from the model's
                                           // pristine value under fade)
  std::vector<double> battery_level_j;     // N

  // Accumulated run metrics.
  Metrics metrics;

  // Mobility (absent for static runs).
  bool has_mobility = false;
  RandomWaypoint::Snapshot mobility;
  std::vector<net::Vec2> user_positions;

  // Stability auditor accumulators (absent for audit-off runs).
  bool has_audit = false;
  obs::AuditorState audit;

  // Sleep-policy controller state (absent unless the run drives an active
  // policy::SleepController). v5.
  bool has_policy = false;
  policy::SleepControllerState policy_state;

  // Alert-engine state (absent unless the run evaluates --alerts rules).
  // v6. Unlike mobility/policy, a presence mismatch is tolerated: alert
  // state never affects Metrics, so resuming an alert-free checkpoint with
  // rules on (or vice versa) just restarts the engine's accumulators.
  bool has_alerts = false;
  obs::AlertEngineState alert_state;
};

// Captures the full loop state after slot `next_slot - 1` completed.
// `auditor` and `sleep` may be null (audit-off / policy-free run).
Checkpoint make_checkpoint(int next_slot, const Rng& input_rng,
                           const core::LyapunovController& controller,
                           const Metrics& metrics,
                           const RandomWaypoint* mobility,
                           const net::Topology* topology,
                           const obs::StabilityAuditor* auditor = nullptr,
                           const policy::SleepController* sleep = nullptr,
                           const obs::AlertEngine* alerts = nullptr);

// Reinstates a checkpoint into live objects. The controller must be built
// on the same model/scenario the checkpoint came from (arity-checked).
// Pass mobility/topology iff the checkpoint has mobility state. Auditor
// state is restored when both the checkpoint carries it and `auditor` is
// non-null; any other combination is ignored (audit state never affects
// Metrics, so an audit-on resume of an audit-off checkpoint just restarts
// its accumulators). Policy state, like mobility, must match: a checkpoint
// with (without) a policy section resumed by a run without (with) an
// active SleepController would silently replay a different network, so
// the mismatch is refused.
void restore_checkpoint(const Checkpoint& checkpoint, Rng& input_rng,
                        core::LyapunovController& controller,
                        Metrics& metrics, RandomWaypoint* mobility,
                        net::Topology* topology,
                        obs::StabilityAuditor* auditor = nullptr,
                        policy::SleepController* sleep = nullptr,
                        obs::AlertEngine* alerts = nullptr);

// Binary IO. save_checkpoint is atomic and durable (util::write_file_atomic);
// load_checkpoint throws CheckpointError on a missing file, bad magic,
// unsupported version, truncation, CRC mismatch, an implausible length
// field, or trailing bytes.
void save_checkpoint(const Checkpoint& checkpoint, const std::string& path);
Checkpoint load_checkpoint(const std::string& path);

// Run-lifecycle robustness metrics (docs/ROBUSTNESS.md): resumes,
// corrupt-generation fallbacks, resume-side trace truncation and graceful
// shutdowns, registered together at first use. The supervisor's
// parent-side counters (sim/supervisor.cpp) share the robust.* group.
struct RobustMetrics {
  obs::Counter& resumes = obs::registry().counter("robust.resumes");
  obs::Counter& fallbacks =
      obs::registry().counter("robust.checkpoint_fallbacks");
  obs::Counter& truncated =
      obs::registry().counter("robust.sink_truncated_records");
  obs::Counter& shutdowns =
      obs::registry().counter("robust.graceful_shutdowns");
  obs::Gauge& resumed_slot = obs::registry().gauge("robust.resumed_slot");
};
RobustMetrics& robust_metrics();

// ---- Generations -----------------------------------------------------

// Generations a CheckpointRotator keeps: the newest plus one to fall back
// to when the newest is torn or corrupt.
inline constexpr int kCheckpointGenerations = 2;

// One on-disk checkpoint generation.
struct GenerationInfo {
  std::int64_t generation = 0;  // monotonically increasing across restarts
  std::string file;             // BASE.gen<generation>
};

// The BASE.gen<K> files in base's directory, oldest first. Empty when none
// exist.
std::vector<GenerationInfo> list_generations(const std::string& base);

// The newest generation that loads cleanly — the one selection rule the
// simulator, the supervising CLI and chaos_runner share. `skipped_corrupt`
// counts newer generations that had to be passed over (each one is a
// successful corruption fallback — the robust.* metrics report them).
// Returns std::nullopt when no generation files exist at all (a fresh
// start, or a crash before the first checkpoint); throws CheckpointError
// when generations exist but every one is corrupt.
struct ResumeSelection {
  Checkpoint checkpoint;
  GenerationInfo source;
  int skipped_corrupt = 0;
};
std::optional<ResumeSelection> load_newest_valid(const std::string& base);

// The slot an auto-resume from `base` starts at: load_newest_valid's
// next_slot, 0 when nothing exists. An unreadable checkpoint is not a
// fresh start — it throws CheckpointError like load_newest_valid, and the
// resume it names will refuse to run.
int auto_resume_slot(const std::string& base);

// Resumes a run from the generations at options.resume_path into the live
// loop objects (restore_checkpoint) and returns the slot it continues
// from; 0 when resume_path is empty, or when resume_auto finds nothing to
// resume (a supervised first attempt may crash before its first
// checkpoint). Refused with CheckpointError: nothing found without
// resume_auto, a scenario hash other than the run's (only the structural
// hash must match under allow_swapped_scenario), and a checkpoint beyond
// `slots`. Counts robust.resumes and robust.checkpoint_fallbacks, and
// journals a checkpoint_fallback lifecycle event when corrupt generations
// were skipped.
int resume_run(const SimOptions& options, int slots, Rng& input_rng,
               core::LyapunovController& controller, Metrics& metrics,
               RandomWaypoint* mobility, net::Topology* topology,
               obs::StabilityAuditor* auditor, policy::SleepController* sleep);

// Writes checkpoint generations of `base`. Each write numbers the new
// generation one above the highest the directory scan finds, saves it,
// then prunes every generation but the newest kCheckpointGenerations
// (orphans of a crashed run included). A crash between the save and the
// prune leaves one extra file, which the next write removes.
class CheckpointRotator {
 public:
  explicit CheckpointRotator(std::string base) : base_(std::move(base)) {}

  void write(const Checkpoint& checkpoint) const;

 private:
  std::string base_;
};

}  // namespace gc::sim
