// Kill-chaos harness (docs/ROBUSTNESS.md "Operating long runs"): a
// supervised run SIGKILLed at scheduled slots must auto-resume from its
// rotating checkpoints and converge to a final state bit-identical to an
// uninterrupted run's — metrics, stability-audit accumulators, and the
// JSONL trace, byte for byte. The kills happen in forked
// children (sim::RunSupervisor), exactly like production crashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <signal.h>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/controller.hpp"
#include "fault/fault_schedule.hpp"
#include "lp/simplex.hpp"
#include "lp/solve_log.hpp"
#include "obs/events.hpp"
#include "sim/checkpoint.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/supervisor.hpp"

#include "metrics_testutil.hpp"

namespace gc::sim {
namespace {

std::string tmp_path(const char* name) {
  return testing::TempDir() + "gc_chaos_test_" + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void expect_audit_bit_identical(const Checkpoint& got,
                                const Checkpoint& want) {
  ASSERT_EQ(got.has_audit, want.has_audit);
  if (!got.has_audit) return;
  EXPECT_EQ(got.audit.slots, want.audit.slots);
  EXPECT_EQ(bits(got.audit.cost_sum), bits(want.audit.cost_sum));
  EXPECT_EQ(bits(got.audit.prev_lyapunov), bits(want.audit.prev_lyapunov));
  EXPECT_EQ(got.audit.total_q_violations, want.audit.total_q_violations);
  EXPECT_EQ(got.audit.total_z_violations, want.audit.total_z_violations);
  EXPECT_EQ(got.audit.total_drift_violations,
            want.audit.total_drift_violations);
  EXPECT_EQ(got.audit.unstable_windows, want.audit.unstable_windows);
  EXPECT_EQ(bits(got.audit.run_worst_q_margin),
            bits(want.audit.run_worst_q_margin));
  EXPECT_EQ(bits(got.audit.run_worst_z_margin),
            bits(want.audit.run_worst_z_margin));
  EXPECT_EQ(got.audit.window_fill, want.audit.window_fill);
  EXPECT_EQ(got.audit.closed_windows, want.audit.closed_windows);
  EXPECT_EQ(bits(got.audit.window_backlog_sum),
            bits(want.audit.window_backlog_sum));
  EXPECT_EQ(bits(got.audit.window_cost_delta),
            bits(want.audit.window_cost_delta));
}

// Event-journal lines with a sequence number, wall-clock stripped — the
// deterministic slot-event stream; lifecycle lines (restart, reload) are
// by-design unique to the supervised run and excluded from the compare.
std::vector<std::string> read_slot_events(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"seq\":", 0) != 0) continue;
    const std::size_t at = line.find(",\"wall_s\":");
    lines.push_back(at == std::string::npos ? line
                                            : line.substr(0, at) + "}");
  }
  return lines;
}

int count_lifecycle(const std::string& path, const char* kind) {
  std::ifstream in(path);
  const std::string prefix = std::string("{\"kind\":\"") + kind + "\",";
  int n = 0;
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) ++n;
  return n;
}

// The referee: schedule kills (including a double kill at one slot), run
// under the supervisor, and require bit-identical convergence. Everything
// the parent checks comes out of the final checkpoint — the attempts ran
// in forked children, so the files ARE the shared state.
TEST(ChaosResume, SupervisedKillChaosConvergesBitIdentically) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 70;
  const std::string clean_ckpt = tmp_path("clean.ckpt");
  const std::string base = tmp_path("chaos.ckpt");
  const std::string clean_trace = tmp_path("clean_trace.jsonl");
  const std::string chaos_trace = tmp_path("chaos_trace.jsonl");
  const std::string clean_events = tmp_path("clean_events.jsonl");
  const std::string chaos_events = tmp_path("chaos_events.jsonl");
  remove_generations(clean_ckpt);
  remove_generations(base);
  std::remove(chaos_trace.c_str());
  std::remove(chaos_events.c_str());

  // Uninterrupted reference run, final checkpoint + trace + journal kept.
  // The checkpoint cadence must match the chaos run's: checkpoint_write
  // slot events are part of the stream being compared.
  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    obs::EventJournal journal;
    journal.open_sink(clean_events, -1);
    SimOptions opts;
    opts.checkpoint_path = clean_ckpt;
    opts.checkpoint_every = 5;
    opts.trace_path = clean_trace;
    opts.events = &journal;
    run_simulation(model, ctrl, horizon, opts);
  }

  // Three kills: a double at slot 13 (fires on two consecutive attempts —
  // the MAX-ordinal rule) and one at slot 29.
  fault::FaultSchedule faults(cfg.build().num_nodes(), 7);
  for (const int slot : {13, 13, 29}) {
    fault::FaultEvent e;
    e.kind = fault::FaultEvent::Kind::ProcessKill;
    e.start = slot;
    faults.add(e);
  }

  SupervisorOptions sup_opts;
  sup_opts.max_restarts = 5;
  sup_opts.backoff_ms = 1;  // keep the test fast
  sup_opts.quiet = true;
  sup_opts.on_crash_restart = [&](int crash_restarts) {
    // The parent appends the restart lifecycle line, exactly like the CLI.
    append_supervisor_event(chaos_events, base, obs::EventKind::kRestart,
                            crash_restarts);
  };
  RunSupervisor supervisor(sup_opts);
  const SupervisorOutcome outcome =
      supervisor.run([&](int crash_restarts) {
        const auto model = cfg.build();
        core::LyapunovController ctrl(model, 3.0,
                                      cfg.controller_options());
        obs::EventJournal journal;
        journal.open_sink(chaos_events, crash_restarts > 0
                                            ? auto_resume_slot(base)
                                            : -1);
        SimOptions opts;
        opts.checkpoint_path = base;
        opts.checkpoint_every = 5;
        opts.resume_path = base;
        opts.resume_auto = true;
        opts.trace_path = chaos_trace;
        opts.events = &journal;
        opts.process_kill_skip = crash_restarts;
        opts.faults = &faults;
        run_simulation(model, ctrl, horizon, opts);
        return 0;
      });

  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(outcome.crash_restarts, 3);
  EXPECT_FALSE(outcome.gave_up);

  const auto sel = load_newest_valid(base);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->checkpoint.next_slot, horizon);
  const Checkpoint clean = newest_checkpoint(clean_ckpt);
  expect_metrics_bit_identical(sel->checkpoint.metrics, clean.metrics);
  expect_audit_bit_identical(sel->checkpoint, clean);
  EXPECT_EQ(bits(sel->checkpoint.last_grid_j), bits(clean.last_grid_j));

  // The resumed trace must be byte-identical.
  const auto clean_lines = read_lines(clean_trace);
  const auto chaos_lines = read_lines(chaos_trace);
  ASSERT_EQ(chaos_lines.size(), clean_lines.size());
  ASSERT_EQ(clean_lines.size(), static_cast<std::size_t>(horizon + 1));
  for (std::size_t i = 0; i < clean_lines.size(); ++i)
    EXPECT_EQ(chaos_lines[i], clean_lines[i]) << "line " << i;

  // So must the event journal's slot-event stream (modulo wall_s): the
  // resume-side truncation + seq recovery make the killed run re-emit
  // exactly the lines the uninterrupted run wrote.
  const auto clean_events_lines = read_slot_events(clean_events);
  const auto chaos_events_lines = read_slot_events(chaos_events);
  ASSERT_FALSE(clean_events_lines.empty());
  ASSERT_EQ(chaos_events_lines.size(), clean_events_lines.size());
  for (std::size_t i = 0; i < clean_events_lines.size(); ++i)
    EXPECT_EQ(chaos_events_lines[i], clean_events_lines[i])
        << "event " << i;
  // The lifecycle layer is the by-design difference: one restart line per
  // survived kill, none in the clean journal.
  EXPECT_EQ(count_lifecycle(chaos_events, "restart"), 3);
  EXPECT_EQ(count_lifecycle(clean_events, "restart"), 0);

  remove_generations(clean_ckpt);
  std::remove(clean_trace.c_str());
  std::remove(chaos_trace.c_str());
  std::remove(clean_events.c_str());
  std::remove(chaos_events.c_str());
  remove_generations(base);
}

// Lines of `path` with the trailing wall-clock field (",\"wall_s\":...}")
// cut off — the only nondeterministic part of an LP-log line.
std::vector<std::string> read_lines_without_wall_s(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) nl = data.size();  // a torn tail shows
    std::string line = data.substr(pos, nl - pos);
    const std::size_t at = line.find(",\"wall_s\":");
    if (at != std::string::npos) line = line.substr(0, at) + "}";
    lines.push_back(line);
    pos = nl + 1;
  }
  return lines;
}

// The --lp-log resume contract at library level: a crashed run's log holds
// lines past its checkpoint plus a torn final line; reopening at the
// resume slot cuts both, and the finished file matches an uninterrupted
// run's byte for byte once wall_s is stripped.
TEST(ChaosResume, LpLogCutAndAppendMatchesUninterruptedRun) {
  const auto cfg = ScenarioConfig::paper();
  const int horizon = 12, crash_after = 6;
  const std::string clean_log = tmp_path("clean_lp.jsonl");
  const std::string log_path = tmp_path("resumed_lp.jsonl");
  const std::string ckpt = tmp_path("lp.ckpt");
  remove_generations(ckpt);

  const auto run = [&](const std::string& lp_path, int resume_slot,
                       int slots, SimOptions opts) {
    const auto model = cfg.build();
    lp::JsonlSolveLog log(lp_path, resume_slot);
    core::ControllerOptions copts = cfg.controller_options();
    copts.lp_stats = &log;
    core::LyapunovController ctrl(model, 3.0, copts);
    opts.lp_sink = &log;
    run_simulation(model, ctrl, slots, opts);
  };
  run(clean_log, -1, horizon, {});
  const std::vector<std::string> clean = read_lines_without_wall_s(clean_log);

  SimOptions first;
  first.checkpoint_path = ckpt;
  run(log_path, -1, crash_after, first);
  ASSERT_EQ(auto_resume_slot(ckpt), crash_after);
  {
    // The crashed attempt got further than its checkpoint: two more slots
    // of complete lines, then a line torn by the kill.
    std::ifstream in(clean_log);
    std::ofstream out(log_path, std::ios::app);
    std::string line;
    int past = 0;
    while (std::getline(in, line)) {
      if (line.find("\"slot\":" + std::to_string(crash_after) + ",") ==
              std::string::npos &&
          line.find("\"slot\":" + std::to_string(crash_after + 1) + ",") ==
              std::string::npos)
        continue;
      out << line << '\n';
      ++past;
    }
    ASSERT_GT(past, 0);
    out << "{\"ctx\":\"s1\",\"slot\":" << crash_after + 2 << ",\"ro";
  }

  SimOptions resumed;
  resumed.resume_path = ckpt;
  run(log_path, auto_resume_slot(ckpt), horizon, resumed);
  const std::vector<std::string> got = read_lines_without_wall_s(log_path);
  ASSERT_FALSE(clean.empty());
  ASSERT_EQ(got.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i)
    EXPECT_EQ(got[i], clean[i]) << "line " << i;

  std::remove(clean_log.c_str());
  std::remove(log_path.c_str());
  remove_generations(ckpt);
}

// Checkpoints that exist but none of which loads are not a fresh start:
// the supervising parent must append its restart line without cutting the
// journal, and the next attempt refuses the checkpoint instead of
// replaying from slot 0.
TEST(ChaosResume, CorruptSingleCheckpointKeepsJournalSlotEvents) {
  const auto cfg = ScenarioConfig::tiny();
  const std::string ckpt = tmp_path("corrupt_single.ckpt");
  const std::string events = tmp_path("corrupt_single_events.jsonl");
  remove_generations(ckpt);
  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    obs::EventJournal journal;
    journal.open_sink(events, -1);
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    opts.checkpoint_every = 5;
    opts.events = &journal;
    run_simulation(model, ctrl, 10, opts);
  }
  const std::vector<std::string> before = read_slot_events(events);
  ASSERT_FALSE(before.empty());

  // Flip one payload bit in each generation; the CRC now refuses them all.
  for (const GenerationInfo& g : list_generations(ckpt)) {
    std::fstream f(g.file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff mid = f.tellg() / 2;
    f.seekg(mid);
    const char c = static_cast<char>(f.get());
    f.seekp(mid);
    f.put(static_cast<char>(c ^ 0x40));
  }
  EXPECT_THROW(auto_resume_slot(ckpt), CheckpointError);

  append_supervisor_event(events, ckpt, obs::EventKind::kRestart, 1);
  EXPECT_EQ(read_slot_events(events), before);
  EXPECT_EQ(count_lifecycle(events, "restart"), 1);

  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = ckpt;
  opts.resume_auto = true;
  EXPECT_THROW(run_simulation(model, ctrl, 20, opts), CheckpointError);

  remove_generations(ckpt);
  std::remove(events.c_str());
}

// A sink that requests graceful shutdown when the controller announces a
// given slot — the in-process stand-in for SIGTERM arriving mid-run.
class ShutdownAtSlot : public lp::SolveStatsSink {
 public:
  explicit ShutdownAtSlot(int slot) : slot_(slot) {}
  void on_solve(const lp::SolveStats&, const char*) override {}
  void begin_slot(int slot) override {
    if (slot == slot_) request_shutdown();
  }

 private:
  int slot_;
};

TEST(ChaosResume, GracefulShutdownThenResumeIsBitIdentical) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 50, stop_at = 21;
  const std::string ckpt = tmp_path("graceful.ckpt");
  clear_shutdown_request();

  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, {});

  bool interrupted = false;
  {
    const auto model = cfg.build();
    core::ControllerOptions copts = cfg.controller_options();
    ShutdownAtSlot sink(stop_at);
    copts.lp_stats = &sink;
    core::LyapunovController ctrl(model, 3.0, copts);
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    opts.interrupted = &interrupted;
    const Metrics partial = run_simulation(model, ctrl, horizon, opts);
    // The flag is polled at the NEXT slot boundary, so the run covers
    // [0, stop_at] inclusive before checkpointing.
    EXPECT_EQ(partial.slots, stop_at + 1);
  }
  EXPECT_TRUE(interrupted);
  clear_shutdown_request();
  EXPECT_EQ(newest_checkpoint(ckpt).next_slot, stop_at + 1);

  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = ckpt;
  const Metrics resumed = run_simulation(model, ctrl, horizon, opts);
  expect_metrics_bit_identical(resumed, ref);
  remove_generations(ckpt);
}

// The shutdown path and the end of a run share one finish: the final
// checkpoint after flushing every output, then the snapshot. A resumed
// run with a resume_auto trace and a journal opened at the resume cut
// then reproduces the uninterrupted run's trace byte for byte and its
// slot events line for line; the only extra line is the shutdown's own
// checkpoint_write.
TEST(ChaosResume, GracefulShutdownThenResumeKeepsOutputsIdentical) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 50, stop_at = 21;
  const auto run_leg = [&](const std::string& name, lp::SolveStatsSink* sink,
                           bool* interrupted) {
    const std::string ckpt = tmp_path((name + ".ckpt").c_str());
    const auto model = cfg.build();
    core::ControllerOptions copts = cfg.controller_options();
    copts.lp_stats = sink;
    core::LyapunovController ctrl(model, 3.0, copts);
    obs::EventJournal journal;
    journal.open_sink(tmp_path((name + ".events").c_str()),
                      auto_resume_slot(ckpt));
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    opts.checkpoint_every = 10;
    opts.resume_path = ckpt;
    opts.resume_auto = true;
    opts.trace_path = tmp_path((name + ".trace").c_str());
    opts.events = &journal;
    opts.snapshot_path = tmp_path((name + ".snap").c_str());
    opts.interrupted = interrupted;
    return run_simulation(model, ctrl, horizon, opts);
  };
  const auto slot_of_snapshot = [](const std::string& path) {
    std::ifstream in(path);
    std::string body;
    std::getline(in, body);
    return std::atoi(body.c_str() + body.find("\"slot\":") + 7);
  };
  // Slot events without their seq: the shutdown's extra line shifts every
  // later seq by one.
  const auto events_without_seq = [](const std::string& path) {
    std::vector<std::string> out;
    for (std::string line : read_slot_events(path))
      out.push_back(line.erase(1, line.find(',')));
    return out;
  };
  for (const char* name : {"finish_ref", "finish_cut"}) {
    remove_generations(tmp_path((std::string(name) + ".ckpt").c_str()));
    for (const char* ext : {".events", ".trace", ".snap"})
      std::remove(tmp_path((std::string(name) + ext).c_str()).c_str());
  }
  clear_shutdown_request();
  const Metrics ref = run_leg("finish_ref", nullptr, nullptr);

  bool interrupted = false;
  ShutdownAtSlot stop(stop_at);
  EXPECT_EQ(run_leg("finish_cut", &stop, &interrupted).slots, stop_at + 1);
  EXPECT_TRUE(interrupted);
  clear_shutdown_request();
  EXPECT_EQ(slot_of_snapshot(tmp_path("finish_cut.snap")), stop_at + 1);
  interrupted = false;
  expect_metrics_bit_identical(run_leg("finish_cut", nullptr, &interrupted),
                               ref);
  EXPECT_FALSE(interrupted);
  EXPECT_EQ(slot_of_snapshot(tmp_path("finish_cut.snap")), horizon);

  const auto ref_trace = read_lines(tmp_path("finish_ref.trace"));
  ASSERT_EQ(ref_trace.size(), static_cast<std::size_t>(horizon) + 1);
  EXPECT_EQ(read_lines(tmp_path("finish_cut.trace")), ref_trace);

  std::vector<std::string> cut = events_without_seq(tmp_path("finish_cut.events"));
  const std::string shutdown_line =
      "{\"slot\":" + std::to_string(stop_at) +
      ",\"kind\":\"checkpoint_write\",\"value\":" +
      std::to_string(stop_at + 1) + "}";
  const auto it = std::find(cut.begin(), cut.end(), shutdown_line);
  ASSERT_NE(it, cut.end());
  cut.erase(it);
  EXPECT_EQ(cut, events_without_seq(tmp_path("finish_ref.events")));
}

// Nonzero child exits are deterministic failures — the supervisor must
// pass them through instead of burning restarts on them.
TEST(ChaosResume, SupervisorPassesThroughDeterministicFailures) {
  SupervisorOptions opts;
  opts.max_restarts = 5;
  opts.backoff_ms = 1;
  opts.quiet = true;
  const SupervisorOutcome outcome =
      RunSupervisor(opts).run([](int) { return 3; });
  EXPECT_EQ(outcome.exit_code, 3);
  EXPECT_EQ(outcome.crash_restarts, 0);
  EXPECT_FALSE(outcome.gave_up);
}

TEST(ChaosResume, SupervisorGivesUpAfterMaxRestarts) {
  SupervisorOptions opts;
  opts.max_restarts = 2;
  opts.backoff_ms = 1;
  opts.quiet = true;
  const SupervisorOutcome outcome = RunSupervisor(opts).run([](int) {
    std::raise(SIGKILL);
    return 0;  // unreachable
  });
  EXPECT_TRUE(outcome.gave_up);
  EXPECT_EQ(outcome.crash_restarts, 2);
  EXPECT_EQ(outcome.exit_code, 128 + SIGKILL);
}

// A crash-looping child recovers once the fault stops firing: the attempt
// counter the callback receives is what breaks the loop (exactly how
// process_kill_skip consumes scheduled kills).
TEST(ChaosResume, SupervisorRestartCounterReachesChild) {
  SupervisorOptions opts;
  opts.max_restarts = 5;
  opts.backoff_ms = 1;
  opts.quiet = true;
  const SupervisorOutcome outcome =
      RunSupervisor(opts).run([](int crash_restarts) {
        if (crash_restarts < 2) std::raise(SIGKILL);
        return 0;
      });
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(outcome.crash_restarts, 2);
  EXPECT_FALSE(outcome.gave_up);
}

// SIGHUP = hot-reload: graceful child stop, then an uncounted restart.
TEST(ChaosResume, SighupTriggersReloadRestart) {
  SupervisorOptions opts;
  opts.max_restarts = 1;
  opts.backoff_ms = 1;
  opts.quiet = true;
  // Cross-attempt state must live on disk: each attempt is a fresh fork of
  // the parent, so in-memory flags reset (exactly like a real restart).
  const std::string marker = tmp_path("reload.marker");
  std::remove(marker.c_str());
  const SupervisorOutcome outcome =
      RunSupervisor(opts).run([&](int) {
        install_shutdown_signals();
        if (!std::ifstream(marker).good()) {
          std::ofstream(marker) << "1";
          kill(getppid(), SIGHUP);
          // The parent's SIGHUP handler forwards SIGTERM to us; exit
          // gracefully once it lands, like a real run's slot-boundary poll.
          while (!shutdown_requested()) usleep(1000);
          return 0;
        }
        return 0;
      });
  std::remove(marker.c_str());
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(outcome.reloads, 1);
  EXPECT_EQ(outcome.crash_restarts, 0);
}

// Two kills at one slot rank by insertion order; process_kill_skip
// consumes them one attempt at a time (the MAX-ordinal rule).
TEST(ChaosResume, KillOrdinalRanksDuplicateSlots) {
  fault::FaultSchedule faults(2, 7);
  for (const int slot : {5, 5, 9}) {
    fault::FaultEvent e;
    e.kind = fault::FaultEvent::Kind::ProcessKill;
    e.start = slot;
    faults.add(e);
  }
  EXPECT_EQ(faults.at(4).kill_ordinal, -1);
  EXPECT_EQ(faults.at(5).kill_ordinal, 1);  // two events -> ranks 0 and 1
  EXPECT_EQ(faults.at(9).kill_ordinal, 2);
  // A kill never perturbs the physics.
  EXPECT_EQ(faults.at(5).active_events, 0);
  // Deterministic start required: a windowless kill is refused.
  fault::FaultEvent bad;
  bad.kind = fault::FaultEvent::Kind::ProcessKill;
  bad.start = -1;
  EXPECT_THROW(faults.add(bad), CheckError);
}

}  // namespace
}  // namespace gc::sim
