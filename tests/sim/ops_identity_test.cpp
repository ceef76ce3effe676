// The live operations layer (SimOptions::events/alerts/exporter) must be
// pure observation: attaching all three to a run changes no Metrics bit,
// and the /healthz the exporter serves reflects the alert engine's
// critical state at every slot boundary.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/controller.hpp"
#include "obs/alerts.hpp"
#include "obs/events.hpp"
#include "obs/http_exporter.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

#include "metrics_testutil.hpp"

namespace gc::sim {
namespace {

std::string tmp_path(const char* name) {
  return testing::TempDir() + "gc_ops_test_" + name;
}

struct HttpReply {
  int status = 0;
  std::string body;
};

HttpReply http_get(int port, const std::string& path) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ::send(fd, req.data(), req.size(), 0);
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) == 0)
    reply.status = std::atoi(raw.c_str() + 9);
  const std::string::size_type split = raw.find("\r\n\r\n");
  if (split != std::string::npos) reply.body = raw.substr(split + 4);
  return reply;
}

// A rule that holds from slot 0 without any registry instrument (an absent
// metric reads 0 and 0 < 1 holds).
obs::AlertRule always_firing(bool critical) {
  obs::AlertRule r;
  r.name = critical ? "crit" : "warn";
  r.metric = "no.such.metric";
  r.op = obs::AlertRule::Op::kLess;
  r.threshold = 1.0;
  r.critical = critical;
  return r;
}

TEST(OpsLayer, AttachingEventsAlertsAndExporterIsMetricsNeutral) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 40;

  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, {});

  const std::string events_path = tmp_path("neutral.events.jsonl");
  obs::EventJournal journal;
  journal.open_sink(events_path, -1);
  obs::AlertEngine alerts({always_firing(false), always_firing(true)});
  obs::HttpExporter exporter(0, &journal);

  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.events = &journal;
  opts.alerts = &alerts;
  opts.exporter = &exporter;
  const Metrics ops = run_simulation(model, ctrl, horizon, opts);

  expect_metrics_bit_identical(ops, ref);
  // The layer observed the run: both rules fired at slot 0.
  EXPECT_EQ(alerts.total_fires(), 2u);
  EXPECT_GE(journal.next_seq(), 2u);
  std::uint64_t next = 0;
  int fires = 0;
  for (const std::string& line : journal.ring_since(0, &next))
    if (line.find("\"kind\":\"alert_fire\"") != std::string::npos) ++fires;
  EXPECT_EQ(fires, 2);
  std::remove(events_path.c_str());
}

TEST(OpsLayer, HealthzReflectsCriticalAlertState) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 10;

  // A critical rule firing flips /healthz to 503 "alerting".
  {
    obs::AlertEngine alerts({always_firing(true)});
    obs::HttpExporter exporter(0, nullptr);
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.alerts = &alerts;
    opts.exporter = &exporter;
    run_simulation(model, ctrl, horizon, opts);

    const HttpReply h = http_get(exporter.port(), "/healthz");
    EXPECT_EQ(h.status, 503);
    EXPECT_NE(h.body.find("\"status\":\"alerting\""), std::string::npos)
        << h.body;
    EXPECT_NE(h.body.find("\"critical_firing\":1"), std::string::npos);
    EXPECT_NE(h.body.find("\"slot\":10"), std::string::npos);
    EXPECT_NE(h.body.find("\"total_slots\":10"), std::string::npos);
    // No checkpointing on this run: the age field is the -1 sentinel.
    EXPECT_NE(h.body.find("\"checkpoint_age_slots\":-1"),
              std::string::npos);
  }

  // A warning-only rule keeps /healthz at 200 "ok".
  {
    obs::AlertEngine alerts({always_firing(false)});
    obs::HttpExporter exporter(0, nullptr);
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.alerts = &alerts;
    opts.exporter = &exporter;
    run_simulation(model, ctrl, horizon, opts);

    const HttpReply h = http_get(exporter.port(), "/healthz");
    EXPECT_EQ(h.status, 200);
    EXPECT_NE(h.body.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(h.body.find("\"alerts_firing\":1"), std::string::npos);
    EXPECT_NE(h.body.find("\"critical_firing\":0"), std::string::npos);
  }
}

TEST(OpsLayer, MetricsEndpointServesLiveSlotCount) {
  const auto cfg = ScenarioConfig::tiny();
  obs::HttpExporter exporter(0, nullptr);
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.exporter = &exporter;
  opts.checkpoint_path = tmp_path("live.ckpt");
  run_simulation(model, ctrl, 12, opts);

  const HttpReply m = http_get(exporter.port(), "/metrics");
  EXPECT_EQ(m.status, 200);
  EXPECT_NE(m.body.find("gc_snapshot_slot 12"), std::string::npos);
  EXPECT_NE(m.body.find("# TYPE gc_snapshot_slot gauge"),
            std::string::npos);
  const HttpReply s = http_get(exporter.port(), "/snapshot.json");
  EXPECT_EQ(s.status, 200);
  EXPECT_NE(s.body.find("\"slot\":12"), std::string::npos);
  // The final checkpoint just landed, so the age is zero.
  const HttpReply h = http_get(exporter.port(), "/healthz");
  EXPECT_NE(h.body.find("\"checkpoint_age_slots\":0"), std::string::npos)
      << h.body;
  remove_generations(opts.checkpoint_path);
}

// The journal records the run's checkpoint cadence as slot events: the
// stream is deterministic (modulo the trailing wall_s) and the final
// checkpoint is the only event at the horizon boundary.
TEST(OpsLayer, JournalRecordsCheckpointCadence) {
  const auto cfg = ScenarioConfig::tiny();
  const std::string events_path = tmp_path("cadence.events.jsonl");
  obs::EventJournal journal;
  journal.open_sink(events_path, -1);
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.events = &journal;
  opts.checkpoint_path = tmp_path("cadence.ckpt");
  opts.checkpoint_every = 5;
  run_simulation(model, ctrl, 20, opts);

  // Cadence writes after slots 4, 9, 14 plus the final write after 19
  // (the t+1 < slots gate keeps the cadence from double-writing the end).
  std::uint64_t next = 0;
  std::vector<std::string> ckpts;
  for (const std::string& line : journal.ring_since(0, &next))
    if (line.find("\"kind\":\"checkpoint_write\"") != std::string::npos)
      ckpts.push_back(line);
  ASSERT_EQ(ckpts.size(), 4u);
  EXPECT_NE(ckpts[0].find("\"slot\":4,\"kind\":\"checkpoint_write\","
                          "\"value\":5"),
            std::string::npos)
      << ckpts[0];
  EXPECT_NE(ckpts[3].find("\"slot\":19,\"kind\":\"checkpoint_write\","
                          "\"value\":20"),
            std::string::npos)
      << ckpts[3];
  std::remove(events_path.c_str());
  remove_generations(opts.checkpoint_path);
}

}  // namespace
}  // namespace gc::sim
