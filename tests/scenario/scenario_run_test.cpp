// End-to-end scenario subsystem guarantees: the default spec reproduces
// ScenarioConfig::paper() bit-identically, generator-driven specs are
// deterministic in any job order, time-varying traffic shows up
// in the offered-packets accounting, and a checkpoint written under one
// scenario hash refuses to resume under another.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

#include "../sim/metrics_testutil.hpp"

namespace gc::scenario {
namespace {

sim::Metrics run_config(const sim::ScenarioConfig& cfg, int slots,
                        const sim::SimOptions& opts = {}) {
  const core::NetworkModel model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  return sim::run_simulation(model, controller, slots, opts);
}

// ISSUE acceptance: the default spec (and hence
// examples/scenarios/paper_baseline.json, which is its resolved dump) is
// the paper scenario down to the last bit.
TEST(ScenarioRun, DefaultSpecReproducesPaperBitIdentically) {
  const ScenarioSpec spec = parse_scenario_json("{}");
  const sim::Metrics from_spec = run_config(spec.config, 30);
  const sim::Metrics paper = run_config(sim::ScenarioConfig::paper(), 30);
  expect_metrics_bit_identical(from_spec, paper);
}

// A generator-heavy spec (hex grid, clustered users, bursty traffic, wind
// renewables) must give bit-identical per-job Metrics whether its jobs run
// forward or in reverse: generation and traffic sampling are seeded per
// job, never from shared mutable state.
TEST(ScenarioRun, GeneratorScenarioDeterministicAcrossJobOrder) {
  const ScenarioSpec spec = parse_scenario_json(R"({
    "topology": {
      "layout": "hex_grid",
      "cells": {"rows": 1, "cols": 2, "radius_m": 400},
      "users": {"count": 10, "placement": "clustered", "hotspots": 2}
    },
    "traffic": {"kind": "bursty", "sessions": 3, "block_slots": 4},
    "renewables": {"kind": "wind"}
  })");
  std::vector<sim::SimJob> jobs;
  for (int k = 0; k < 4; ++k) {
    sim::SimJob job;
    job.scenario = spec.config;
    job.slots = 8;
    job.sim.input_seed = 100 + static_cast<std::uint64_t>(k);
    jobs.push_back(job);
  }
  std::vector<sim::Metrics> forward(jobs.size()), reverse(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k)
    forward[k] = sim::run_job(jobs[k]);
  for (std::size_t k = jobs.size(); k-- > 0;)
    reverse[k] = sim::run_job(jobs[k]);
  for (std::size_t k = 0; k < jobs.size(); ++k)
    expect_metrics_bit_identical(forward[k], reverse[k]);
}

TEST(ScenarioRun, TimeVaryingTrafficChangesOfferedPackets) {
  const ScenarioSpec constant = parse_scenario_json("{}");
  const ScenarioSpec flash = parse_scenario_json(R"({
    "traffic": {"kind": "flash_crowd", "start_slot": 2,
                "duration_slots": 5, "spike_multiplier": 4.0}
  })");
  const sim::Metrics mc = run_config(constant.config, 10);
  const sim::Metrics mf = run_config(flash.config, 10);
  EXPECT_GT(mc.total_offered_packets, 0.0);
  EXPECT_GT(mf.total_offered_packets, mc.total_offered_packets)
      << "the spike slots must offer more than the constant baseline";
}

// Satellite 1: the checkpoint header carries the scenario hash, and
// resuming under a different spec is refused loudly instead of silently
// continuing a different experiment.
TEST(ScenarioRun, ResumeUnderDifferentScenarioHashIsRefused) {
  const ScenarioSpec spec = parse_scenario_json("{}");
  const std::uint64_t hash = scenario_hash(spec);
  const std::string ckpt =
      testing::TempDir() + "gc_scenario_hash_mismatch.ckpt";

  sim::SimOptions write_opts;
  write_opts.scenario_name = spec.name;
  write_opts.scenario_hash = hash;
  write_opts.checkpoint_path = ckpt;
  run_config(spec.config, 5, write_opts);

  sim::SimOptions mismatched;
  mismatched.scenario_hash = hash ^ 0xdeadbeefull;
  mismatched.resume_path = ckpt;
  EXPECT_THROW(run_config(spec.config, 10, mismatched), CheckError);

  sim::SimOptions matched;
  matched.scenario_hash = hash;
  matched.resume_path = ckpt;
  const sim::Metrics resumed = run_config(spec.config, 10, matched);
  EXPECT_EQ(resumed.slots, 10);
  sim::remove_generations(ckpt);
}

}  // namespace
}  // namespace gc::scenario
