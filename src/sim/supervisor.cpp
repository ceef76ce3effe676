#include "sim/supervisor.hpp"

#include <csignal>
#include <cstdio>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/registry.hpp"
#include "sim/checkpoint.hpp"
#include "util/check.hpp"

namespace gc::sim {

namespace {

// All signal-visible state is sig_atomic_t and only ever set in handlers /
// read outside them; no locks, no allocation in handlers.
volatile std::sig_atomic_t g_shutdown = 0;

// Supervisor-parent state: the child being watched and what the last
// parent-directed signal asked for.
volatile std::sig_atomic_t g_child_pid = 0;
volatile std::sig_atomic_t g_terminate = 0;  // SIGTERM/SIGINT seen
volatile std::sig_atomic_t g_reload = 0;     // SIGHUP seen

void shutdown_handler(int /*sig*/) { g_shutdown = 1; }

void supervisor_terminate_handler(int /*sig*/) {
  g_terminate = 1;
  const pid_t child = static_cast<pid_t>(g_child_pid);
  if (child > 0) kill(child, SIGTERM);
}

void supervisor_reload_handler(int /*sig*/) {
  g_reload = 1;
  const pid_t child = static_cast<pid_t>(g_child_pid);
  if (child > 0) kill(child, SIGTERM);
}

void install(int sig, void (*handler)(int), int flags) {
  struct sigaction sa = {};
  sa.sa_handler = handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = flags;
  sigaction(sig, &sa, nullptr);
}

// Parent-side supervision counters. robust.* is the run-lifecycle metrics
// group; the child-side members are sim::RobustMetrics.
struct SupervisorMetrics {
  obs::Counter& restarts =
      obs::registry().counter("robust.supervisor_restarts");
  obs::Counter& reloads = obs::registry().counter("robust.supervisor_reloads");
  obs::Counter& gave_up = obs::registry().counter("robust.supervisor_gave_up");
};

SupervisorMetrics& metrics() {
  static thread_local SupervisorMetrics m;
  return m;
}

// Interruptible millisecond sleep: returns early once termination was
// requested so Ctrl-C never waits out a long backoff.
void backoff_sleep(int total_ms) {
  int remaining = total_ms;
  while (remaining > 0 && !g_terminate) {
    const int chunk = remaining < 50 ? remaining : 50;
    usleep(static_cast<useconds_t>(chunk) * 1000);
    remaining -= chunk;
  }
}

}  // namespace

void install_shutdown_signals() {
  // SA_RESETHAND: the first signal requests a graceful stop, the second
  // gets the default (fatal) disposition — an escape hatch from a wedged
  // slot. No SA_RESTART: a blocked read should fail with EINTR and let the
  // loop notice the flag.
  install(SIGTERM, shutdown_handler, SA_RESETHAND);
  install(SIGINT, shutdown_handler, SA_RESETHAND);
}

bool shutdown_requested() { return g_shutdown != 0; }
void request_shutdown() { g_shutdown = 1; }
void clear_shutdown_request() { g_shutdown = 0; }

SupervisorOutcome RunSupervisor::run(
    const std::function<int(int crash_restarts)>& child_run) {
  GC_CHECK_MSG(options_.max_restarts >= 0, "max_restarts must be >= 0");
  GC_CHECK_MSG(options_.backoff_ms >= 0, "backoff_ms must be >= 0");

  SupervisorOutcome outcome;
  g_terminate = 0;
  g_reload = 0;
  install(SIGTERM, supervisor_terminate_handler, 0);
  install(SIGINT, supervisor_terminate_handler, 0);
  install(SIGHUP, supervisor_reload_handler, 0);

  int consecutive_crashes = 0;
  while (true) {
    const pid_t pid = fork();
    GC_CHECK_MSG(pid >= 0, "supervisor fork failed");
    if (pid == 0) {
      // Child: drop the parent's supervision handlers (the run installs
      // its own graceful-shutdown ones) and any latched flags, run the
      // attempt, and exit without unwinding into the parent's stack.
      g_child_pid = 0;
      install(SIGTERM, SIG_DFL, 0);
      install(SIGINT, SIG_DFL, 0);
      install(SIGHUP, SIG_DFL, 0);
      clear_shutdown_request();
      int code = 1;
      try {
        code = child_run(outcome.crash_restarts);
      } catch (...) {
        code = 1;
      }
      // _exit skips stdio teardown (running the parent's static
      // destructors in the child would be wrong), so flush what the
      // attempt printed first.
      std::fflush(nullptr);
      _exit(code);
    }
    g_child_pid = static_cast<std::sig_atomic_t>(pid);
    // A signal can land in the gap between fork() returning and the pid
    // being published above: the handler then finds g_child_pid == 0,
    // latches its flag without forwarding SIGTERM, and the request would
    // deadlock — parent blocked in waitpid, child waiting for a SIGTERM
    // that never comes. Re-check the latched flags now that the pid is
    // visible; any signal arriving after this point forwards directly.
    if (g_terminate || g_reload) kill(pid, SIGTERM);

    int status = 0;
    pid_t waited;
    do {
      waited = waitpid(pid, &status, 0);
    } while (waited < 0);
    g_child_pid = 0;

    if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      if (code == 0 && g_reload) {
        // Graceful exit under a SIGHUP: restart so the child re-reads its
        // reload file. Not a crash — doesn't count against max_restarts.
        g_reload = 0;
        ++outcome.reloads;
        metrics().reloads.add();
        if (options_.on_reload) options_.on_reload();
        consecutive_crashes = 0;
        if (!options_.quiet)
          std::fprintf(stderr,
                       "supervisor: reload requested, restarting child\n");
        continue;
      }
      // Clean completion, or a deterministic failure a restart would only
      // repeat. Either way supervision ends here.
      outcome.exit_code = code;
      return outcome;
    }

    const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    if (g_terminate) {
      // We forwarded a termination request; the child dying (by our
      // SIGTERM or anything else) ends supervision.
      outcome.exit_code = 128 + sig;
      return outcome;
    }
    // Abnormal death: restart from the last good checkpoint.
    if (outcome.crash_restarts >= options_.max_restarts) {
      outcome.gave_up = true;
      outcome.exit_code = 128 + sig;
      metrics().gave_up.add();
      if (!options_.quiet)
        std::fprintf(stderr,
                     "supervisor: child died with signal %d; giving up "
                     "after %d restarts\n",
                     sig, outcome.crash_restarts);
      return outcome;
    }
    ++outcome.crash_restarts;
    metrics().restarts.add();
    if (options_.on_crash_restart)
      options_.on_crash_restart(outcome.crash_restarts);
    const int backoff =
        options_.backoff_ms << (consecutive_crashes < 16 ? consecutive_crashes
                                                         : 16);
    ++consecutive_crashes;
    if (!options_.quiet)
      std::fprintf(stderr,
                   "supervisor: child died with signal %d; restart %d/%d "
                   "in %d ms\n",
                   sig, outcome.crash_restarts, options_.max_restarts,
                   backoff);
    backoff_sleep(backoff);
    if (g_terminate) {
      outcome.exit_code = 128 + SIGTERM;
      return outcome;
    }
  }
}

void append_supervisor_event(const std::string& events_path,
                             const std::string& checkpoint_base,
                             obs::EventKind kind, double value) {
  int cut = -1;  // unreadable: keep every slot event
  try {
    cut = auto_resume_slot(checkpoint_base);
  } catch (const CheckError&) {
  }
  obs::append_lifecycle_event(events_path, cut, kind, cut < 0 ? 0 : cut,
                              value);
}

}  // namespace gc::sim
