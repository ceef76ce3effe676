#include "core/controller.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/validate.hpp"
#include "obs/registry.hpp"
#include "sim/scenario.hpp"

namespace gc::core {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : model_(sim::ScenarioConfig::tiny().build()) {}

  SlotInputs inputs_at(int slot) {
    Rng rng(99);
    return model_.sample_inputs(slot, rng);
  }

  NetworkModel model_;
};

TEST_F(ControllerTest, FirstSlotAdmitsTraffic) {
  LyapunovController c(model_, 2.0,
                       sim::ScenarioConfig::tiny().controller_options());
  const auto d = c.step(inputs_at(0));
  // Empty queues are below the lambda*V threshold: every session admits.
  for (int s = 0; s < model_.num_sessions(); ++s)
    EXPECT_DOUBLE_EQ(d.admissions[s].packets,
                     model_.session(s).max_admit_packets);
  EXPECT_EQ(c.state().slot(), 1);
}

TEST_F(ControllerTest, EveryDecisionSatisfiesAllConstraints) {
  LyapunovController c(model_, 2.0,
                       sim::ScenarioConfig::tiny().controller_options());
  Rng rng(7);
  for (int t = 0; t < 40; ++t) {
    const auto inputs = model_.sample_inputs(t, rng);
    const NetworkState pre = c.state();
    const auto d = c.step(inputs);
    const auto violations = validate_decision(pre, inputs, d);
    EXPECT_TRUE(violations.empty())
        << "slot " << t << ": " << violations.front();
  }
}

TEST_F(ControllerTest, SchedulesOnceBacklogExists) {
  LyapunovController c(model_, 2.0,
                       sim::ScenarioConfig::tiny().controller_options());
  c.step(inputs_at(0));  // admit -> Q > 0 but H == 0 (nothing routed yet)
  // After a few slots the virtual queues fill and links get scheduled.
  bool scheduled = false;
  for (int t = 1; t < 12 && !scheduled; ++t)
    scheduled = !c.step(inputs_at(t)).schedule.empty();
  EXPECT_TRUE(scheduled);
}

TEST_F(ControllerTest, DeterministicGivenSeedAndV) {
  auto opts = sim::ScenarioConfig::tiny().controller_options();
  LyapunovController a(model_, 2.0, opts), b(model_, 2.0, opts);
  for (int t = 0; t < 10; ++t) {
    const auto in = inputs_at(t);
    const auto da = a.step(in);
    const auto db = b.step(in);
    EXPECT_DOUBLE_EQ(da.cost, db.cost);
    EXPECT_EQ(da.schedule.size(), db.schedule.size());
    EXPECT_EQ(da.routes.size(), db.routes.size());
  }
}

TEST_F(ControllerTest, AdmissionStopsAtLambdaVThreshold) {
  // Cripple the spectrum so queues cannot drain: once every base station
  // holds >= lambda*V packets, admission must stop for good.
  auto cfg = sim::ScenarioConfig::tiny();
  cfg.spectrum.cellular_bandwidth_hz = 1.0;
  cfg.spectrum.num_random_bands = 0;
  const auto model = cfg.build();
  auto opts = cfg.controller_options();
  opts.allocator.lambda = 0.5;  // lambda*V = 1 packet
  LyapunovController c(model, 2.0, opts);
  Rng rng(21);
  // One admission per base station fills every candidate source.
  for (int b = 0; b < model.num_base_stations(); ++b)
    c.step(model.sample_inputs(b, rng));
  const auto d = c.step(model.sample_inputs(2, rng));
  for (int s = 0; s < model.num_sessions(); ++s)
    EXPECT_DOUBLE_EQ(d.admissions[s].packets, 0.0);
}

TEST_F(ControllerTest, GreedySchedulerVariantRuns) {
  auto opts = sim::ScenarioConfig::tiny().controller_options();
  opts.scheduler = ControllerOptions::Scheduler::Greedy;
  LyapunovController c(model_, 2.0, opts);
  Rng rng(13);
  for (int t = 0; t < 15; ++t) {
    const auto inputs = model_.sample_inputs(t, rng);
    const NetworkState pre = c.state();
    const auto d = c.step(inputs);
    EXPECT_TRUE(validate_decision(pre, inputs, d).empty());
  }
}

TEST_F(ControllerTest, LpEnergyManagerVariantRuns) {
  auto opts = sim::ScenarioConfig::tiny().controller_options();
  opts.energy_manager = ControllerOptions::EnergyManager::Lp;
  LyapunovController c(model_, 2.0, opts);
  Rng rng(14);
  for (int t = 0; t < 10; ++t) {
    const auto inputs = model_.sample_inputs(t, rng);
    const auto d = c.step(inputs);
    EXPECT_GE(d.cost, 0.0);
  }
}

// Counts the LP solves each controller workspace reports, by context.
class SolveCounter : public lp::SolveStatsSink {
 public:
  void on_solve(const lp::SolveStats&, const char* context) override {
    ++counts[context];
  }
  std::map<std::string, int> counts;
};

TEST(ControllerDefaults, S4IsTheClosedFormAndSolvesNoLp) {
  const auto cfg = sim::ScenarioConfig::paper();
  const auto model = cfg.build();
  const double fallbacks_before =
      obs::registry().counter("ctrl.fallback_s4").total();

  SolveCounter def;
  auto opts = cfg.controller_options();
  EXPECT_EQ(opts.energy_manager, ControllerOptions::EnergyManager::Price);
  opts.lp_stats = &def;
  LyapunovController c(model, 3.0, opts);
  Rng rng(21);
  for (int t = 0; t < 50; ++t) c.step(model.sample_inputs(t, rng));
  EXPECT_EQ(def.counts["s4"], 0);
  EXPECT_GT(def.counts["s1"], 0);  // the sink does see the slot's LPs
  EXPECT_EQ(obs::registry().counter("ctrl.fallback_s4").total(),
            fallbacks_before);

  // Opting into the LP oracle puts one S4 solve back on every slot.
  SolveCounter lp;
  opts.energy_manager = ControllerOptions::EnergyManager::Lp;
  opts.lp_stats = &lp;
  LyapunovController c_lp(model, 3.0, opts);
  Rng rng_lp(21);
  for (int t = 0; t < 5; ++t) c_lp.step(model.sample_inputs(t, rng_lp));
  EXPECT_EQ(lp.counts["s4"], 5);
}

TEST_F(ControllerTest, OneHopArchitectureNeverRelays) {
  auto cfg = sim::ScenarioConfig::tiny();
  cfg.multihop = false;
  const auto model = cfg.build();
  LyapunovController c(model, 2.0, cfg.controller_options());
  Rng rng(15);
  for (int t = 0; t < 25; ++t) {
    const auto d = c.step(model.sample_inputs(t, rng));
    for (const auto& sl : d.schedule) {
      EXPECT_TRUE(model.topology().is_base_station(sl.tx));
      EXPECT_FALSE(model.topology().is_base_station(sl.rx));
    }
  }
}

TEST_F(ControllerTest, RejectsMalformedInputs) {
  LyapunovController c(model_, 2.0);
  SlotInputs bad;
  bad.bandwidth_hz = {1e6};  // wrong arity
  bad.renewable_j.assign(static_cast<std::size_t>(model_.num_nodes()), 0.0);
  bad.grid_connected.assign(static_cast<std::size_t>(model_.num_nodes()), 1);
  EXPECT_THROW(c.step(bad), CheckError);
}

}  // namespace
}  // namespace gc::core
