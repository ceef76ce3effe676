// Run-lifecycle robustness layer (docs/ROBUSTNESS.md "Operating long
// runs"): crash supervision and signal-safe graceful shutdown.
//
// RunSupervisor turns one simulation invocation into a supervised service:
// the run executes in a forked child; the parent watches its exit. A child
// killed by a signal (SIGKILL, SIGSEGV, OOM) is a *crash* — the parent
// restarts it with exponential backoff, up to max_restarts times, and the
// restarted attempt resumes from the newest valid checkpoint generation
// (the child callback receives the number of crashes survived so far). A
// child that exits nonzero failed *deterministically* (bad flag, scenario
// error, strict-bounds abort) — restarting would fail identically, so the
// supervisor passes the exit code through. SIGTERM/SIGINT to the parent
// forward to the child and end supervision after its graceful exit; SIGHUP
// requests a config reload — graceful child shutdown, then an immediate
// restart (not counted against max_restarts) under which the child
// re-reads its --reload-scenario file.
//
// The graceful-shutdown half is process-global: install_shutdown_signals()
// registers SIGTERM/SIGINT handlers that set a sig_atomic_t flag, and the
// simulation loop polls shutdown_requested() at every slot boundary —
// writing a final checkpoint, flushing every sink, and returning cleanly.
// SA_RESETHAND restores the default disposition after the first signal, so
// a second Ctrl-C always kills a wedged run.
#pragma once

#include <functional>
#include <string>

#include "obs/events.hpp"

namespace gc::sim {

// ---- Graceful shutdown (signal-safe flag) ----------------------------

// Registers SIGTERM + SIGINT handlers that set the shutdown flag. One-shot
// per signal (SA_RESETHAND): the second signal terminates the process.
void install_shutdown_signals();

// True once SIGTERM/SIGINT arrived (or request_shutdown() was called).
bool shutdown_requested();

// Test hooks: raise/clear the flag without delivering a signal.
void request_shutdown();
void clear_shutdown_request();

// ---- Crash supervision -----------------------------------------------

struct SupervisorOptions {
  int max_restarts = 5;       // crash restarts before giving up
  int backoff_ms = 500;       // first backoff; doubles per consecutive crash
  bool quiet = false;         // suppress progress lines on stderr

  // Parent-side lifecycle hooks (docs/OBSERVABILITY.md "Operating live
  // runs"). Both run in the PARENT — the only process that survives the
  // crash — so the event journal's restart / hot_reload lines come from a
  // process that actually witnessed the transition. on_crash_restart
  // receives the new cumulative crash count and runs before the backoff
  // sleep; on_reload runs before the reload restart. May be empty.
  std::function<void(int crash_restarts)> on_crash_restart;
  std::function<void()> on_reload;
};

struct SupervisorOutcome {
  int exit_code = 0;     // final child exit code (128+sig for a fatal signal)
  int crash_restarts = 0;  // crashes survived (each restarted the child)
  int reloads = 0;       // SIGHUP-triggered graceful restarts
  bool gave_up = false;  // crashed more than max_restarts times
};

// The parent's lifecycle line (restart, hot_reload) for a supervised run
// checkpointing to `checkpoint_base`: appended to the event journal at
// `events_path` at the slot the next attempt resumes from
// (auto_resume_slot), after cutting the journal back to that slot — the
// same cut the attempt will make. An unreadable checkpoint cuts no slot
// event: the next attempt will refuse it, and the journal must outlive
// that refusal.
void append_supervisor_event(const std::string& events_path,
                             const std::string& checkpoint_base,
                             obs::EventKind kind, double value);

class RunSupervisor {
 public:
  explicit RunSupervisor(SupervisorOptions options) : options_(options) {}

  // Runs `child_run` in forked children until it completes, fails
  // deterministically, or exhausts max_restarts. The callback receives the
  // number of crashes survived so far (0 on the first attempt) and returns
  // the process exit code; it runs in the child, so anything it mutates is
  // invisible to the caller — all cross-attempt state must go through the
  // checkpoint files. Counts restarts/reloads in the parent's robust.*
  // registry group.
  SupervisorOutcome run(const std::function<int(int crash_restarts)>& child_run);

 private:
  SupervisorOptions options_;
};

}  // namespace gc::sim
