// Checkpoint/resume (sim/checkpoint.hpp, docs/ROBUSTNESS.md): a run killed
// after a checkpoint and resumed in a fresh process-equivalent (new model,
// new controller, new RNG) must reproduce the uninterrupted run's Metrics
// series bit-identically.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "core/controller.hpp"
#include "obs/registry.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

#include "metrics_testutil.hpp"

namespace gc::sim {
namespace {

std::string tmp_path(const char* name) {
  return testing::TempDir() + "gc_checkpoint_test_" + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// CRC-32 (IEEE, reflected), bit by bit: the checkpoint header's checksum.
std::uint32_t crc32(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char b : bytes) {
    crc ^= b;
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return ~crc;
}

std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 0xf];
  }
  return out;
}

// A hand-built checkpoint with every optional section present and a
// distinctive value in every field, so any reordering, resizing or
// dropped field in the codec changes the payload (and thus its CRC).
Checkpoint pinned_checkpoint() {
  Checkpoint c;
  c.next_slot = 1234;
  c.scenario_hash = 0x0123456789abcdefull;
  c.scenario_structural_hash = 0xfedcba9876543210ull;
  c.input_rng.s[0] = 1;
  c.input_rng.s[1] = 0x8000000000000001ull;
  c.input_rng.s[2] = 3;
  c.input_rng.s[3] = 4;
  c.input_rng.seed = 42;
  c.last_grid_j = -3.25;
  c.q = {1.5, -0.0, 1e300};
  c.gq = {0.0, 2.5, 3.75, 0.0};
  c.battery_capacity_j = {100.0, 200.0};
  c.battery_level_j = {50.0, 0.125};

  Metrics& m = c.metrics;
  m.cost = {1.0, 2.0};
  m.grid_j = {3.0};
  m.q_bs = {4.0, 5.0, 6.0};
  m.q_users = {7.0};
  m.battery_bs_j = {8.0};
  m.cost_avg.restore(12.5, 4);
  m.q_total_stability.add(3.0);
  m.q_total_stability.add(-5.0);
  m.h_total_stability.add(0.5);
  m.total_demand_shortfall = 1.25;
  m.total_unserved_energy_j = 2.25;
  m.total_curtailed_j = 3.25;
  m.total_delivered_packets = 4.25;
  m.total_admitted_packets = 5.25;
  m.total_offered_packets = 6.25;
  m.slots = 4;

  c.has_mobility = true;
  c.mobility.targets = {{1.0, 2.0}, {3.0, 4.0}};
  c.mobility.speeds_mps = {1.5, 2.5};
  c.mobility.rng.s[0] = 5;
  c.mobility.rng.s[3] = 6;
  c.mobility.rng.seed = 7;
  c.user_positions = {{5.0, 6.0}, {7.0, 8.0}};

  c.has_audit = true;
  obs::AuditorState& a = c.audit;
  a.slots = 9;
  a.cost_sum = 10.5;
  a.prev_lyapunov = 11.5;
  a.have_prev_lyapunov = true;
  a.total_q_violations = 12;
  a.total_z_violations = 13;
  a.total_drift_violations = 14;
  a.unstable_windows = 15;
  a.run_worst_q_margin = -16.5;
  a.run_worst_z_margin = 17.5;
  a.window_fill = 18;
  a.closed_windows = 19;
  a.window_backlog_sum = 20.5;
  a.window_cost_sum = 21.5;
  a.prev_window_backlog_mean = 22.5;
  a.prev_window_cost_mean = 23.5;
  a.have_prev_window = true;
  a.window_cost_delta = -24.5;

  c.has_policy = true;
  c.policy_state.mode = {0, 1, 2};
  c.policy_state.dwell = {5, -1, 7};
  c.policy_state.wake_countdown = {0, 0, 3};
  c.policy_state.switches = 11;
  c.policy_state.switch_energy_j = 2.75;
  c.policy_state.sleep_slots = 19;

  c.has_alerts = true;
  c.alert_state.rules_hash = 0xabcdef0123456789ull;
  c.alert_state.total_fires = 3;
  c.alert_state.rules.resize(2);
  c.alert_state.rules[0].cum = 1.5;
  c.alert_state.rules[0].hold = 2;
  c.alert_state.rules[0].firing = true;
  c.alert_state.rules[0].window = {0.5, 1.0};
  return c;
}

TEST(Checkpoint, SaveLoadRoundTripsBitExactly) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  SimOptions opts;
  Metrics m = run_simulation(model, controller, 20, opts);
  Rng rng(opts.input_seed);

  const Checkpoint a =
      make_checkpoint(20, rng, controller, m, nullptr, nullptr);
  const std::string path = tmp_path("roundtrip.ckpt");
  save_checkpoint(a, path);
  const Checkpoint b = load_checkpoint(path);

  EXPECT_EQ(b.next_slot, a.next_slot);
  EXPECT_EQ(bits(b.last_grid_j), bits(a.last_grid_j));
  expect_series_bit_identical(b.q, a.q, "q");
  expect_series_bit_identical(b.gq, a.gq, "gq");
  expect_series_bit_identical(b.battery_capacity_j, a.battery_capacity_j,
                              "battery_capacity_j");
  expect_series_bit_identical(b.battery_level_j, a.battery_level_j,
                              "battery_level_j");
  EXPECT_FALSE(b.has_mobility);
  expect_metrics_bit_identical(b.metrics, a.metrics);
  std::remove(path.c_str());
}

// Every field of a slot decision, doubles as their bit patterns, in one
// list that compares with ==.
std::vector<std::uint64_t> decision_bits(const core::SlotDecision& d) {
  std::vector<std::uint64_t> out;
  const auto put = [&](double x) { out.push_back(bits(x)); };
  put(d.schedule.size());
  for (const auto& l : d.schedule) {
    put(l.tx);
    put(l.rx);
    put(l.band);
    put(l.power_w);
    put(l.capacity_bps);
    put(l.capacity_packets);
  }
  put(d.routes.size());
  for (const auto& r : d.routes) {
    put(r.tx);
    put(r.rx);
    put(r.session);
    put(r.packets);
  }
  for (const auto& a : d.admissions) {
    put(a.source_bs);
    put(a.packets);
  }
  for (const auto& e : d.energy)
    for (double x : {e.demand_j, e.serve_renewable_j, e.serve_grid_j,
                     e.discharge_j, e.charge_renewable_j, e.charge_grid_j,
                     e.curtailed_j, e.unserved_j})
      put(x);
  for (const auto& e : d.energy) put(e.connected);
  for (double x : d.demand_shortfall) put(x);
  for (double x : {d.grid_total_j, d.cost, d.unserved_energy_j}) put(x);
  put(d.fallbacks);
  return out;
}

// Energy-aware scheduling prices relay fill-in candidates at V f'(P(t-1)),
// so a resumed controller needs P(t-1) back from the checkpoint. No CLI
// run sets the option, so only this test sees that restore. The tariff
// has no linear term: f'(0) = 0, so a controller that lost P(t-1) would
// schedule its first resumed slot unpriced. On this instance that moves
// the schedule when resuming at slot 1.
TEST(Checkpoint, EnergyAwareResumeMatchesUninterruptedRun) {
  ScenarioConfig cfg = ScenarioConfig::tiny();
  cfg.cost_b = 0.0;
  core::ControllerOptions opts = cfg.controller_options();
  opts.energy_aware_scheduling = true;
  const auto model = cfg.build();
  const double V = 3.0;
  const int horizon = 60;
  const auto run = [&](core::LyapunovController& ctrl, Rng& rng, int from,
                       std::vector<core::SlotDecision>& out) {
    for (int t = from; t < horizon; ++t)
      out.push_back(ctrl.step(model.sample_inputs(t, rng)));
  };
  const auto write_final = [&](const core::LyapunovController& ctrl,
                               const Rng& rng, const char* name) {
    const std::string path = tmp_path(name);
    save_checkpoint(
        make_checkpoint(horizon, rng, ctrl, Metrics{}, nullptr, nullptr),
        path);
    const std::string bytes = read_bytes(path);
    std::remove(path.c_str());
    return bytes;
  };

  core::LyapunovController ref(model, V, opts);
  Rng ref_rng(11);
  std::vector<core::SlotDecision> want;
  run(ref, ref_rng, 0, want);
  const std::string want_final = write_final(ref, ref_rng, "aware_ref.ckpt");

  for (int cut : {1, 2, 30}) {
    std::vector<core::SlotDecision> got;
    const std::string path = tmp_path("aware_cut.ckpt");
    {
      core::LyapunovController first(model, V, opts);
      Rng rng(11);
      for (int t = 0; t < cut; ++t)
        got.push_back(first.step(model.sample_inputs(t, rng)));
      save_checkpoint(
          make_checkpoint(cut, rng, first, Metrics{}, nullptr, nullptr),
          path);
    }
    core::LyapunovController resumed(model, V, opts);
    Rng rng(0);
    Metrics metrics;
    restore_checkpoint(load_checkpoint(path), rng, resumed, metrics, nullptr,
                       nullptr);
    std::remove(path.c_str());
    run(resumed, rng, cut, got);

    ASSERT_EQ(got.size(), want.size());
    for (int t = cut; t < horizon; ++t)
      ASSERT_EQ(decision_bits(got[t]), decision_bits(want[t]))
          << "cut " << cut << ", slot " << t;
    EXPECT_EQ(write_final(resumed, rng, "aware_resumed.ckpt"), want_final)
        << "cut " << cut;
  }
}

TEST(Checkpoint, KillAndResumeStaticRunIsBitIdentical) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 100, kill_at = 40;
  const std::string ckpt = tmp_path("static.ckpt");

  // Reference: one uninterrupted run.
  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, {});

  // "Crashed" run: stops after kill_at slots, leaving its final checkpoint.
  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    run_simulation(model, ctrl, kill_at, opts);
  }

  // Resume in a fresh model/controller, as a restarted process would.
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = ckpt;
  const Metrics resumed = run_simulation(model, ctrl, horizon, opts);

  expect_metrics_bit_identical(resumed, ref);
  remove_generations(ckpt);
}

TEST(Checkpoint, KillAndResumeMobileRunIsBitIdentical) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 80, kill_at = 33;  // not a multiple of anything
  const std::string ckpt = tmp_path("mobile.ckpt");
  MobilityConfig mob;
  mob.speed_mps_lo = 0.5;
  mob.speed_mps_hi = 5.0;
  mob.area_m = cfg.area_m;

  auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  const Metrics ref =
      run_simulation_mobile(ref_model, ref_ctrl, horizon, mob, {});

  {
    auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    run_simulation_mobile(model, ctrl, kill_at, mob, opts);
  }

  auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = ckpt;
  const Metrics resumed =
      run_simulation_mobile(model, ctrl, horizon, mob, opts);

  expect_metrics_bit_identical(resumed, ref);
  remove_generations(ckpt);
}

TEST(Checkpoint, PeriodicCheckpointsResumeFromTheLastOne) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 50;
  const std::string ckpt = tmp_path("periodic.ckpt");

  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, {});

  // A run with --checkpoint-every 7 exercises the periodic writes (after
  // slots 7, 14, 21, 28 — each a new generation, pruned to the newest two)
  // before the final checkpoint at its 31-slot horizon.
  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    opts.checkpoint_every = 7;
    run_simulation(model, ctrl, 31, opts);
  }
  // The final checkpoint of the truncated run is at its horizon (31).
  EXPECT_EQ(newest_checkpoint(ckpt).next_slot, 31);
  EXPECT_EQ(list_generations(ckpt).size(), 2u);

  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = ckpt;
  const Metrics resumed = run_simulation(model, ctrl, horizon, opts);
  expect_metrics_bit_identical(resumed, ref);
  remove_generations(ckpt);
}

// Solver introspection survives a crash: no solver carries state across
// slots, so the lp.* counter totals of a killed + resumed run must equal
// the uninterrupted run's — the interruption falls on a slot boundary and
// no solver state is (or may be) lost.
// Each leg's counts are deltas of the process registry around its run;
// they are integer counts, so the differences are exact.
TEST(Checkpoint, LpCountersReplayAcrossResume) {
  const int horizon = 60, kill_at = 25;
  const std::string ckpt = tmp_path("lp_counters.ckpt");
  // The S1 packing LPs start on their slack basis, so phase I is
  // legitimately 0 here; lp.solves and lp.phase2_iterations are hot on
  // every slot and pin the replay non-vacuously.
  const std::vector<std::string> names = {
      "lp.solves",           "lp.iterations",        "lp.phase1_iterations",
      "lp.phase2_iterations", "lp.degenerate_pivots", "lp.numeric_repairs"};

  auto make_job = [](int slots) {
    SimJob job;
    job.scenario = ScenarioConfig::tiny();
    job.V = 3.0;
    job.slots = slots;
    return job;
  };
  // Adds each counter's growth over `job` to `counts`.
  auto count = [&names](const SimJob& job,
                         std::map<std::string, double>& counts) {
    std::map<std::string, double> before;
    for (const std::string& n : names)
      before[n] = obs::registry().counter(n).total();
    run_job(job);
    for (const std::string& n : names)
      counts[n] += obs::registry().counter(n).total() - before[n];
  };

  std::map<std::string, double> ref;
  count(make_job(horizon), ref);

  std::map<std::string, double> resumed;  // accumulates both legs
  SimJob first = make_job(kill_at);
  first.sim.checkpoint_path = ckpt;
  count(first, resumed);
  SimJob second = make_job(horizon);
  second.sim.resume_path = ckpt;
  count(second, resumed);

  for (const std::string& n : names) EXPECT_EQ(ref[n], resumed[n]) << n;
  EXPECT_GT(ref["lp.solves"], 0.0);
  EXPECT_GT(ref["lp.phase2_iterations"], 0.0);
  remove_generations(ckpt);
}

TEST(Checkpoint, LoadRejectsMissingFileBadMagicAndTruncation) {
  EXPECT_THROW(load_checkpoint(tmp_path("no_such_file.ckpt")), CheckError);

  const std::string bad_magic = tmp_path("bad_magic.ckpt");
  {
    std::ofstream out(bad_magic, std::ios::binary);
    out << "NOTGCCK1 some trailing bytes that are long enough";
  }
  EXPECT_THROW(load_checkpoint(bad_magic), CheckError);
  std::remove(bad_magic.c_str());

  // A valid checkpoint with its tail torn off (crash mid-copy) must be
  // rejected, not half-loaded.
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 5, {});
  Rng rng(7);
  const std::string good = tmp_path("good.ckpt");
  save_checkpoint(make_checkpoint(5, rng, ctrl, m, nullptr, nullptr), good);
  std::ifstream in(good, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::string torn = tmp_path("torn.ckpt");
  {
    std::ofstream out(torn, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  EXPECT_THROW(load_checkpoint(torn), CheckError);
  std::remove(good.c_str());
  std::remove(torn.c_str());
}

// Satellite: corruption fuzz. Every truncation point and every single-byte
// flip of a valid v3 checkpoint must surface as a typed CheckpointError
// (which is-a CheckError) — never a crash, hang, or silent half-load. The
// v3 header (magic, version, payload size, CRC-32 over the payload) leaves
// no byte uncovered.
TEST(Checkpoint, FuzzTruncationAndByteFlipsAlwaysThrowTyped) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 8, {});
  Rng rng(7);
  const std::string good = tmp_path("fuzz_base.ckpt");
  save_checkpoint(make_checkpoint(8, rng, ctrl, m, nullptr, nullptr), good);
  std::ifstream in(good, std::ios::binary);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(data.size(), 24u);

  const std::string victim = tmp_path("fuzz_victim.ckpt");
  const auto write_victim = [&](const std::string& bytes) {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Truncation sweep: every prefix (stepping 7 to keep the test fast, plus
  // the always-interesting header boundaries) must be rejected.
  std::vector<std::size_t> cuts = {0, 1, 7, 8, 12, 20, 23, 24,
                                   data.size() - 1};
  for (std::size_t cut = 25; cut + 7 < data.size(); cut += 7)
    cuts.push_back(cut);
  for (const std::size_t cut : cuts) {
    write_victim(data.substr(0, cut));
    EXPECT_THROW(load_checkpoint(victim), CheckpointError) << "cut=" << cut;
  }

  // Byte-flip sweep: the header is covered field-by-field, the payload by
  // the CRC; a flip anywhere must be caught.
  for (std::size_t pos = 0; pos < data.size();
       pos += (pos < 28 ? 1 : 11)) {
    std::string flipped = data;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    write_victim(flipped);
    EXPECT_THROW(load_checkpoint(victim), CheckpointError) << "pos=" << pos;
  }

  // Trailing garbage after a valid image is corruption too (a torn rename
  // can concatenate files).
  write_victim(data + "extra");
  EXPECT_THROW(load_checkpoint(victim), CheckpointError);

  std::remove(good.c_str());
  std::remove(victim.c_str());
}

// The on-disk format is a contract: checkpoints written by one build must
// load in the next. The 24-byte header (magic, version, payload size,
// payload CRC-32) of a fully populated checkpoint pins every payload byte,
// and a load -> save round trip reproduces the file exactly.
TEST(Checkpoint, FormatIsPinned) {
  const std::string path = tmp_path("pinned.ckpt");
  save_checkpoint(pinned_checkpoint(), path);
  const std::string bytes = read_bytes(path);
  ASSERT_GE(bytes.size(), 24u);
  EXPECT_EQ(hex(bytes.substr(0, 24)),
            "4743434b50543031080000009c030000000000004bc6e0e8");

  const std::string again = tmp_path("pinned_again.ckpt");
  save_checkpoint(load_checkpoint(path), again);
  EXPECT_EQ(read_bytes(again), bytes);

  // A v7 header (the format that still carried wall-clock timing) is
  // refused, naming both versions.
  std::string v7 = bytes;
  v7[8] = 7;
  write_bytes(again, v7);
  try {
    load_checkpoint(again);
    ADD_FAILURE() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("reads v8"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
  std::remove(again.c_str());
}

// CRC-valid damage (a buggy writer rather than bit rot: the CRC was
// recomputed after the bytes changed) must still load cleanly or throw
// CheckpointError. Anything else — std::bad_alloc from a length field
// taken at its word, say — would stop load_newest_valid from falling back
// to an older generation.
TEST(Checkpoint, CrcValidMutationsThrowTyped) {
  const std::string path = tmp_path("mutate_base.ckpt");
  save_checkpoint(pinned_checkpoint(), path);
  const std::string data = read_bytes(path);
  ASSERT_GT(data.size(), 24u);
  const std::string victim = tmp_path("mutate_victim.ckpt");
  const auto write_with_crc = [&](std::string bytes) {
    const std::uint32_t crc = crc32(std::string_view(bytes).substr(24));
    for (int i = 0; i < 4; ++i)
      bytes[20 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    write_bytes(victim, bytes);
  };

  // The q length sits after the two hashes, next_slot, the RNG state and
  // P(t-1): payload offset 72. Patched to 2^32 and to 10^9 elements.
  constexpr std::size_t kQLength = 24 + 72;
  ASSERT_EQ(data[kQLength], 3);  // pinned_checkpoint's q has 3 entries
  for (const std::uint64_t len : {1ull << 32, 1000000000ull}) {
    std::string bytes = data;
    for (int i = 0; i < 8; ++i)
      bytes[kQLength + i] = static_cast<char>((len >> (8 * i)) & 0xff);
    write_with_crc(bytes);
    EXPECT_THROW(load_checkpoint(victim), CheckpointError) << "len=" << len;
  }

  // Seeded random payload edits: 1-3 bytes each, half of them 0xff so
  // length fields grow large.
  std::mt19937_64 gen(20140630);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string bytes = data;
    const int edits = 1 + static_cast<int>(gen() % 3);
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = 24 + gen() % (bytes.size() - 24);
      bytes[pos] = static_cast<char>(gen() % 2 ? 0xff : gen() & 0xff);
    }
    write_with_crc(bytes);
    try {
      (void)load_checkpoint(victim);
    } catch (const CheckpointError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << " threw " << typeid(e).name()
                    << ": " << e.what();
    }
  }
  std::remove(path.c_str());
  std::remove(victim.c_str());
}

// Generations (sim::CheckpointRotator): each write adds BASE.gen<K> and
// prunes to the newest two; load_newest_valid picks the newest loadable
// one.
TEST(Checkpoint, RotatorKeepsNewestTwoGenerations) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 5, {});
  Rng rng(7);
  const std::string base = tmp_path("rotate.ckpt");
  remove_generations(base);

  const CheckpointRotator rotator(base);
  for (int slot = 1; slot <= 4; ++slot) {
    Checkpoint c = make_checkpoint(slot, rng, ctrl, m, nullptr, nullptr);
    rotator.write(c);
  }
  const std::vector<GenerationInfo> gens = list_generations(base);
  ASSERT_EQ(gens.size(), 2u);  // pruned down to the newest two
  EXPECT_EQ(gens[0].generation, 3);
  EXPECT_EQ(gens[0].file, base + ".gen3");
  EXPECT_EQ(gens[1].generation, 4);
  // Pruned generation files are actually gone.
  EXPECT_FALSE(std::ifstream(base + ".gen1").good());
  EXPECT_FALSE(std::ifstream(base + ".gen2").good());

  const auto sel = load_newest_valid(base);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->checkpoint.next_slot, 4);
  EXPECT_EQ(sel->skipped_corrupt, 0);

  // A new rotator over the same base continues the numbering rather than
  // colliding with surviving generations.
  const CheckpointRotator reopened(base);
  Checkpoint c = make_checkpoint(9, rng, ctrl, m, nullptr, nullptr);
  reopened.write(c);
  const auto after = list_generations(base);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].generation, 5);
  EXPECT_EQ(newest_checkpoint(base).next_slot, 9);

  remove_generations(base);
}

// The two crash windows of a save-then-index store. (1) A crash after a
// generation is saved but before anything else records it: the scan still
// finds it, so resume picks it and the next write does not reuse its
// number. (2) A crash after the save but before the prune: the extra old
// generation is removed by the next write.
TEST(Checkpoint, GenerationsSurviveCrashesBetweenSaveAndPrune) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 5, {});
  Rng rng(7);
  const std::string base = tmp_path("crash_window.ckpt");
  remove_generations(base);

  const CheckpointRotator rotator(base);
  rotator.write(make_checkpoint(10, rng, ctrl, m, nullptr, nullptr));
  rotator.write(make_checkpoint(20, rng, ctrl, m, nullptr, nullptr));
  // The process dies right after saving gen3: nothing but the file itself
  // records it.
  save_checkpoint(make_checkpoint(30, rng, ctrl, m, nullptr, nullptr),
                  base + ".gen3");

  const auto sel = load_newest_valid(base);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->source.generation, 3);
  EXPECT_EQ(sel->checkpoint.next_slot, 30);
  EXPECT_EQ(auto_resume_slot(base), 30);

  const CheckpointRotator restarted(base);
  restarted.write(make_checkpoint(40, rng, ctrl, m, nullptr, nullptr));
  std::vector<GenerationInfo> gens = list_generations(base);
  ASSERT_EQ(gens.size(), 2u);  // gen1 and gen2 pruned, gen3 kept
  EXPECT_EQ(gens[0].generation, 3);
  EXPECT_EQ(gens[1].generation, 4);
  EXPECT_EQ(newest_checkpoint(base).next_slot, 40);

  // An orphan older generation a crashed prune left behind goes with the
  // next write.
  save_checkpoint(make_checkpoint(5, rng, ctrl, m, nullptr, nullptr),
                  base + ".gen1");
  restarted.write(make_checkpoint(50, rng, ctrl, m, nullptr, nullptr));
  gens = list_generations(base);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0].generation, 4);
  EXPECT_EQ(gens[1].generation, 5);

  remove_generations(base);
}

TEST(Checkpoint, LoadNewestValidFallsBackPastCorruptGenerations) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 5, {});
  Rng rng(7);
  const std::string base = tmp_path("fallback.ckpt");
  remove_generations(base);

  // Three generations on disk: two from the rotator plus a third saved
  // behind its back (it keeps only two).
  const CheckpointRotator rotator(base);
  for (int slot = 1; slot <= 2; ++slot) {
    Checkpoint c = make_checkpoint(slot, rng, ctrl, m, nullptr, nullptr);
    rotator.write(c);
  }
  save_checkpoint(make_checkpoint(3, rng, ctrl, m, nullptr, nullptr),
                  base + ".gen3");
  // Corrupt the newest generation; the selection must fall back to gen2
  // and report the skip.
  {
    std::ofstream out(base + ".gen3",
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  const auto sel = load_newest_valid(base);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->checkpoint.next_slot, 2);
  EXPECT_EQ(sel->source.generation, 2);
  EXPECT_EQ(sel->skipped_corrupt, 1);

  // All generations corrupt -> a typed error naming the base.
  for (const auto& g : list_generations(base)) {
    std::ofstream out(g.file, std::ios::binary | std::ios::trunc);
    out << "junk";
  }
  EXPECT_THROW(load_newest_valid(base), CheckpointError);

  remove_generations(base);

  // No generations at all -> nullopt (the caller decides whether a fresh
  // start is acceptable).
  EXPECT_FALSE(load_newest_valid(tmp_path("nothing.ckpt")).has_value());
}

// The scan lists only BASE.gen<digits>: other bases in the same directory
// (another run's BASE.seed0, say) and write_file_atomic's temp files are
// not generations.
TEST(Checkpoint, ScanListsOnlyThisBasesGenerations) {
  const std::string base = tmp_path("scan.ckpt");
  remove_generations(base);
  std::ofstream(base + ".gen2") << "x";
  std::ofstream(base + ".gen10") << "x";
  std::ofstream(base + ".gen3.tmp") << "x";
  std::ofstream(base + ".seed0.gen4") << "x";
  std::ofstream(base + ".gen") << "x";

  const auto listed = list_generations(base);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].generation, 2);
  EXPECT_EQ(listed[1].generation, 10);  // numeric order, not lexical
  EXPECT_EQ(listed[1].file, base + ".gen10");

  remove_generations(base);
  for (const char* stray : {".gen3.tmp", ".seed0.gen4", ".gen"})
    std::remove((base + stray).c_str());
}

// Periodic generations resume bit-identically through run_loop.
TEST(Checkpoint, RotatedResumeIsBitIdentical) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 60, kill_at = 27;
  const std::string base = tmp_path("rotated_resume.ckpt");
  remove_generations(base);

  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, {});

  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.checkpoint_path = base;
    opts.checkpoint_every = 10;
    run_simulation(model, ctrl, kill_at, opts);
  }

  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = base;
  const Metrics resumed = run_simulation(model, ctrl, horizon, opts);
  expect_metrics_bit_identical(resumed, ref);

  remove_generations(base);
}

// The version gate must name BOTH the version it found and the one this
// build supports, so an operator reading the refusal knows the file is
// stale rather than corrupt. The version check runs before the CRC, so a
// byte-patched header needs no re-checksum to reach it.
TEST(Checkpoint, VersionRefusalNamesFoundAndSupportedVersions) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 5, {});
  Rng rng(7);
  const std::string path = tmp_path("old_version.ckpt");
  save_checkpoint(make_checkpoint(5, rng, ctrl, m, nullptr, nullptr), path);

  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  // The u32 format version sits right after the 8-byte magic
  // (little-endian); rewrite v8 -> v6 to fake a checkpoint that still
  // carries the retired LP warm-start section.
  ASSERT_EQ(data[8], 8);
  data[8] = 6;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  try {
    load_checkpoint(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version 6"), std::string::npos) << msg;
    EXPECT_NE(msg.find("reads v8"), std::string::npos) << msg;
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

// v5: the sleep-policy section round trips bit-exactly, and a presence
// mismatch (policy checkpoint into a policy-free run, or vice versa) is
// refused instead of silently replaying a different network.
TEST(Checkpoint, PolicySectionRoundTripsAndPresenceMismatchIsRefused) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 6, {});

  policy::SleepSetup setup;
  setup.config.policy = policy::SleepPolicy::Threshold;
  setup.config.sleep_threshold = 5.0;
  setup.config.min_dwell_slots = 0;
  setup.config.min_awake_bs = 1;
  setup.bs.assign(2, {});
  // A fresh controller (zero backlog) drives the mode machine — the
  // 6-slot run above left ctrl's queues above the sleep threshold.
  core::LyapunovController pctrl(model, 3.0, cfg.controller_options());
  policy::SleepController sleep(model, setup, 3.0);
  Rng rng(7);
  {
    core::SlotInputs inputs = model.sample_inputs(0, rng);
    sleep.decide(0, pctrl.state(), inputs);  // idle network: BS 1 sleeps
  }
  ASSERT_EQ(sleep.mode(1), policy::SleepController::Mode::Sleeping);
  pctrl.mutable_state().set_q(0, 0, 50.0);
  {
    core::SlotInputs inputs = model.sample_inputs(1, rng);
    sleep.decide(1, pctrl.state(), inputs);  // backlog: BS 1 is mid-wake
  }
  ASSERT_EQ(sleep.mode(1), policy::SleepController::Mode::Waking);

  const std::string path = tmp_path("policy.ckpt");
  save_checkpoint(
      make_checkpoint(2, rng, ctrl, m, nullptr, nullptr, nullptr, &sleep),
      path);
  const Checkpoint b = load_checkpoint(path);
  ASSERT_TRUE(b.has_policy);
  const policy::SleepControllerState snap = sleep.snapshot();
  EXPECT_EQ(b.policy_state.mode, snap.mode);
  EXPECT_EQ(b.policy_state.dwell, snap.dwell);
  EXPECT_EQ(b.policy_state.wake_countdown, snap.wake_countdown);
  EXPECT_EQ(b.policy_state.switches, snap.switches);
  EXPECT_EQ(bits(b.policy_state.switch_energy_j),
            bits(snap.switch_energy_j));
  EXPECT_EQ(b.policy_state.sleep_slots, snap.sleep_slots);

  core::LyapunovController ctrl2(model, 3.0, cfg.controller_options());
  Metrics m2;
  Rng rng2(1);
  // Policy checkpoint into a policy-free resume: refused.
  // Each refusal is a CheckpointError with a plain message: no GC_CHECK
  // report, which would print a source path.
  try {
    restore_checkpoint(b, rng2, ctrl2, m2, nullptr, nullptr, nullptr,
                       nullptr);
    ADD_FAILURE() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(std::string(e.what()).find("GC_CHECK"), std::string::npos)
        << e.what();
  }
  // Policy-free checkpoint into a policy-driven resume: refused too.
  const Checkpoint plain =
      make_checkpoint(2, rng, ctrl, m, nullptr, nullptr);
  policy::SleepController sleep2(model, setup, 3.0);
  EXPECT_THROW(restore_checkpoint(plain, rng2, ctrl2, m2, nullptr, nullptr,
                                  nullptr, &sleep2),
               CheckpointError);
  // The matching pair restores and the machine continues mid-wake.
  restore_checkpoint(b, rng2, ctrl2, m2, nullptr, nullptr, nullptr, &sleep2);
  EXPECT_EQ(sleep2.mode(1), policy::SleepController::Mode::Waking);
  EXPECT_EQ(sleep2.switch_count(), sleep.switch_count());
  std::remove(path.c_str());
}

// Kill+resume through run_loop with an active sleep policy: the resumed
// run's Metrics AND policy counters must match the uninterrupted run's.
TEST(Checkpoint, KillAndResumePolicyRunIsBitIdentical) {
  const auto cfg = ScenarioConfig::tiny();
  policy::SleepSetup setup;
  setup.config.policy = policy::SleepPolicy::Hysteresis;
  setup.config.sleep_threshold = 2.0;
  setup.config.wake_threshold = 8.0;
  setup.bs.assign(2, {});
  const int horizon = 80, kill_at = 33;
  const std::string ckpt = tmp_path("policy_resume.ckpt");

  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  SimOptions ref_opts;
  ref_opts.sleep = &setup;
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, ref_opts);

  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.sleep = &setup;
    opts.checkpoint_path = ckpt;
    run_simulation(model, ctrl, kill_at, opts);
  }
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.sleep = &setup;
  opts.resume_path = ckpt;
  const Metrics resumed = run_simulation(model, ctrl, horizon, opts);

  expect_metrics_bit_identical(resumed, ref);
  // The policy aggregates are re-derived from the restored controller, so
  // they only match if the v5 section actually carried the counters.
  EXPECT_EQ(resumed.policy_awake_bs, ref.policy_awake_bs);
  EXPECT_EQ(resumed.policy_switches, ref.policy_switches);
  EXPECT_EQ(bits(resumed.policy_switch_energy_j),
            bits(ref.policy_switch_energy_j));
  EXPECT_EQ(resumed.policy_sleep_slots, ref.policy_sleep_slots);
  remove_generations(ckpt);
}

// v6: the alert-engine state rides the checkpoint, so a resumed run's
// debounce counters and fire/clear edges replay exactly.
TEST(Checkpoint, AlertStateRoundTripsThroughV6) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  SimOptions opts;
  Metrics m = run_simulation(model, controller, 10, opts);
  Rng rng(opts.input_seed);

  // Rules that hold without any registry instrument (an absent metric
  // reads 0, and 0 < 1 holds), so the state is deterministic.
  obs::AlertRule fires;
  fires.name = "fires";
  fires.metric = "no.such.metric";
  fires.op = obs::AlertRule::Op::kLess;
  fires.threshold = 1.0;
  obs::AlertRule slow = fires;
  slow.name = "slow";
  slow.for_slots = 7;
  obs::AlertEngine engine({fires, slow});
  const obs::Registry reg;
  engine.rebase(reg);
  for (int t = 0; t < 3; ++t) engine.evaluate(reg, t, nullptr);
  ASSERT_EQ(engine.firing(), 1);  // "slow" held only 3/7 slots

  const Checkpoint a = make_checkpoint(10, rng, controller, m, nullptr,
                                       nullptr, nullptr, nullptr, &engine);
  EXPECT_TRUE(a.has_alerts);
  const std::string path = tmp_path("alerts.ckpt");
  save_checkpoint(a, path);
  const Checkpoint b = load_checkpoint(path);
  ASSERT_TRUE(b.has_alerts);
  EXPECT_EQ(b.alert_state.rules_hash, engine.rules_hash());
  EXPECT_EQ(b.alert_state.total_fires, 1u);
  ASSERT_EQ(b.alert_state.rules.size(), 2u);
  EXPECT_TRUE(b.alert_state.rules[0].firing);
  EXPECT_EQ(b.alert_state.rules[1].hold, 3u);

  // Restored into a fresh engine, the debounce picks up mid-count: four
  // more holding slots fire the second rule exactly on schedule.
  obs::AlertEngine resumed({fires, slow});
  Rng rng2(opts.input_seed);
  Metrics m2;
  core::LyapunovController ctrl2(model, 3.0, cfg.controller_options());
  restore_checkpoint(b, rng2, ctrl2, m2, nullptr, nullptr, nullptr,
                     nullptr, &resumed);
  resumed.rebase(reg);
  EXPECT_EQ(resumed.firing(), 1);
  EXPECT_EQ(resumed.total_fires(), 1u);
  for (int t = 3; t < 6; ++t) resumed.evaluate(reg, t, nullptr);
  EXPECT_EQ(resumed.firing(), 1);
  resumed.evaluate(reg, 6, nullptr);
  EXPECT_EQ(resumed.firing(), 2);
  std::remove(path.c_str());
}

// Resuming under an edited rule set is refused: silently replaying
// different alerts from old debounce state would be worse than restarting
// the engine.
TEST(Checkpoint, AlertRulesHashMismatchIsRefused) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  SimOptions opts;
  Metrics m = run_simulation(model, controller, 5, opts);
  Rng rng(opts.input_seed);

  obs::AlertRule r;
  r.name = "r";
  r.metric = "m";
  r.threshold = 1.0;
  obs::AlertEngine engine({r});
  const Checkpoint c = make_checkpoint(5, rng, controller, m, nullptr,
                                       nullptr, nullptr, nullptr, &engine);

  obs::AlertRule edited = r;
  edited.threshold = 2.0;
  obs::AlertEngine other({edited});
  Rng rng2(opts.input_seed);
  Metrics m2;
  core::LyapunovController ctrl2(model, 3.0, cfg.controller_options());
  EXPECT_THROW(restore_checkpoint(c, rng2, ctrl2, m2, nullptr, nullptr,
                                  nullptr, nullptr, &other),
               CheckError);
}

// Unlike mobility/policy, an alert-section presence mismatch is tolerated:
// alert state never affects Metrics, so turning rules on (or off) across a
// restart just restarts the engine's accumulators.
TEST(Checkpoint, AlertPresenceMismatchIsTolerated) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  SimOptions opts;
  Metrics m = run_simulation(model, controller, 5, opts);
  Rng rng(opts.input_seed);

  // Alert-free checkpoint resumed by an alerting run: engine untouched.
  const Checkpoint plain =
      make_checkpoint(5, rng, controller, m, nullptr, nullptr);
  EXPECT_FALSE(plain.has_alerts);
  obs::AlertRule r;
  r.name = "r";
  r.metric = "m";
  obs::AlertEngine engine({r});
  {
    Rng rng2(opts.input_seed);
    Metrics m2;
    core::LyapunovController ctrl2(model, 3.0, cfg.controller_options());
    restore_checkpoint(plain, rng2, ctrl2, m2, nullptr, nullptr, nullptr,
                       nullptr, &engine);
    EXPECT_EQ(engine.total_fires(), 0u);
  }
  // Alerting checkpoint resumed by an alert-free run: section ignored.
  const Checkpoint alerting = make_checkpoint(
      5, rng, controller, m, nullptr, nullptr, nullptr, nullptr, &engine);
  EXPECT_TRUE(alerting.has_alerts);
  {
    Rng rng2(opts.input_seed);
    Metrics m2;
    core::LyapunovController ctrl2(model, 3.0, cfg.controller_options());
    restore_checkpoint(alerting, rng2, ctrl2, m2, nullptr, nullptr);
  }
}

TEST(Checkpoint, ResumeBeyondHorizonIsRejected) {
  const auto cfg = ScenarioConfig::tiny();
  const std::string ckpt = tmp_path("beyond.ckpt");
  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    run_simulation(model, ctrl, 20, opts);
  }
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = ckpt;
  EXPECT_THROW(run_simulation(model, ctrl, /*slots=*/10, opts), CheckError);
  remove_generations(ckpt);
}

}  // namespace
}  // namespace gc::sim
