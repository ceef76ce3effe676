// HttpExporter (src/obs/http_exporter.hpp): ephemeral-port binding, the
// publish/scrape payload swap, the /healthz 200<->503 flip, the /events
// ring endpoint, and 404/400 handling — all over real loopback sockets.
#include "obs/http_exporter.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/events.hpp"
#include "util/check.hpp"

namespace gc::obs {
namespace {

struct HttpReply {
  int status = 0;
  std::string body;
};

// Minimal blocking GET against 127.0.0.1:port; empty status 0 on failure.
HttpReply http_get(int port, const std::string& path,
                   const char* verb = "GET") {
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
  const std::string req = std::string(verb) + " " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
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

std::shared_ptr<const HttpExporter::Payload> payload(
    const std::string& metrics, const std::string& snapshot,
    const std::string& healthz, bool healthy) {
  auto p = std::make_shared<HttpExporter::Payload>();
  p->metrics_text = metrics;
  p->snapshot_json = snapshot;
  p->healthz_json = healthz;
  p->healthy = healthy;
  return p;
}

TEST(HttpExporter, BindsEphemeralPortAndServes404) {
  HttpExporter exporter(0, nullptr);
  ASSERT_GT(exporter.port(), 0);
  const HttpReply r = http_get(exporter.port(), "/nope");
  EXPECT_EQ(r.status, 404);
  EXPECT_EQ(r.body, "not found\n");
}

TEST(HttpExporter, ServesThePublishedPayload) {
  HttpExporter exporter(0, nullptr);
  exporter.publish(payload("gc_test_metric 1\n", "{\"slot\":7}\n",
                           "{\"status\":\"ok\"}\n", true));
  HttpReply r = http_get(exporter.port(), "/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "gc_test_metric 1\n");
  r = http_get(exporter.port(), "/snapshot.json");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "{\"slot\":7}\n");
  r = http_get(exporter.port(), "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "{\"status\":\"ok\"}\n");

  // A later publish fully replaces what scrapers see.
  exporter.publish(payload("gc_test_metric 2\n", "{\"slot\":8}\n",
                           "{\"status\":\"ok\"}\n", true));
  r = http_get(exporter.port(), "/metrics");
  EXPECT_EQ(r.body, "gc_test_metric 2\n");
}

TEST(HttpExporter, HealthzFlips503WhileAlertingAndBack) {
  HttpExporter exporter(0, nullptr);
  exporter.publish(payload("", "", "{\"status\":\"alerting\"}\n", false));
  HttpReply r = http_get(exporter.port(), "/healthz");
  EXPECT_EQ(r.status, 503);
  EXPECT_EQ(r.body, "{\"status\":\"alerting\"}\n");

  exporter.publish(payload("", "", "{\"status\":\"ok\"}\n", true));
  r = http_get(exporter.port(), "/healthz");
  EXPECT_EQ(r.status, 200);
}

TEST(HttpExporter, EventsEndpointServesRingAndCursor) {
  EventJournal journal;
  journal.emit_slot(EventKind::kLpFallback, 3, 1, "degraded");
  journal.emit_slot(EventKind::kAlertFire, 4, 1, "rule [warning] m");
  HttpExporter exporter(0, &journal);

  HttpReply r = http_get(exporter.port(), "/events?since=0");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"kind\":\"lp_fallback\""), std::string::npos);
  EXPECT_NE(r.body.find("\"kind\":\"alert_fire\""), std::string::npos);
  EXPECT_NE(r.body.find("\"next_seq\":2"), std::string::npos) << r.body;

  // New events appear to a caught-up poller; old ones don't repeat.
  journal.emit_slot(EventKind::kAlertClear, 9, 0, "rule [warning] m");
  r = http_get(exporter.port(), "/events?since=2");
  EXPECT_NE(r.body.find("\"kind\":\"alert_clear\""), std::string::npos);
  EXPECT_EQ(r.body.find("\"kind\":\"lp_fallback\""), std::string::npos);
  EXPECT_NE(r.body.find("\"next_seq\":3"), std::string::npos);

  r = http_get(exporter.port(), "/events?since=3");
  EXPECT_NE(r.body.find("\"events\":[]"), std::string::npos);

  // Bare /events is since=0.
  r = http_get(exporter.port(), "/events");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"next_seq\":3"), std::string::npos);
}

// The cursor is a decimal u64 in a `since` parameter and nothing else:
// no sign, no trailing text, no other parameter name, no overflow.
TEST(HttpExporter, EventsRejectsMalformedSince) {
  EventJournal journal;
  journal.emit_slot(EventKind::kLpFallback, 3, 1, "degraded");
  HttpExporter exporter(0, &journal);
  for (const char* path :
       {"/events?since=-1", "/events?since=2x", "/events?since=abc",
        "/events?since=", "/events?since=+1",
        "/events?nosince=5", "/events?x=1&since=0", "/events?since=0&x=1",
        "/events?", "/events?since=18446744073709551616"}) {
    const HttpReply r = http_get(exporter.port(), path);
    EXPECT_EQ(r.status, 400) << path;
    EXPECT_EQ(r.body, "bad request\n") << path;
  }
  // The largest u64 is a valid cursor past the end of the ring.
  const HttpReply r =
      http_get(exporter.port(), "/events?since=18446744073709551615");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"events\":[]"), std::string::npos) << r.body;
}

TEST(HttpExporter, EventsWithoutJournalServesEmptyRing) {
  HttpExporter exporter(0, nullptr);
  const HttpReply r = http_get(exporter.port(), "/events?since=0");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "{\"events\":[],\"next_seq\":0}\n");
}

TEST(HttpExporter, NonGetRequestsAreBadRequests) {
  HttpExporter exporter(0, nullptr);
  const HttpReply r = http_get(exporter.port(), "/metrics", "POST");
  EXPECT_EQ(r.status, 400);
}

TEST(HttpExporter, FixedPortIsHonoredAndConflictsThrow) {
  HttpExporter a(0, nullptr);
  // The same port again must fail loudly, not serve stale data.
  EXPECT_THROW(HttpExporter(a.port(), nullptr), CheckError);
}

TEST(HttpExporter, StopIsIdempotent) {
  HttpExporter exporter(0, nullptr);
  exporter.publish(payload("x\n", "y\n", "z\n", true));
  exporter.stop();
  exporter.stop();
  // After stop the port no longer answers.
  EXPECT_EQ(http_get(exporter.port(), "/metrics").status, 0);
}

}  // namespace
}  // namespace gc::obs
