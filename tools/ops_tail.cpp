// ops_tail: follow a live run's structured event journal over the
// greencell_sim --metrics-port HTTP exporter (docs/OBSERVABILITY.md
// "Operating live runs").
//
//   $ greencell_sim ... --metrics-port 0 --metrics-port-file port.txt &
//   $ ops_tail --port-file port.txt
//
// Polls GET /events?since=K against the exporter's in-memory ring and
// prints each new event line to stdout, advancing the cursor from the
// response's next_seq. The cursor is the exporter's per-process ring
// cursor, so a freshly restarted child re-delivers from 0 — exactly what a
// tail wants (the restart's lifecycle line is in the journal file, and the
// new process's ring starts over).
//
// Flags:
//   --port N        exporter port, 1..65535 (required unless --port-file)
//   --port-file P   read the port from the discovery file --metrics-port-file
//                   wrote (waits for it to appear, up to --wait-ms)
//   --host H        exporter host (default 127.0.0.1)
//   --since K       initial ring cursor (default 0 = everything still held)
//   --poll-ms N     poll interval, >= 1 (default 500)
//   --wait-ms N     how long to wait for the port file / first connection
//                   (default 10000)
//   --once          one poll, print, exit (scripting; exit 0 even if empty)
//
// Exits 0 when the exporter goes away after at least one successful poll (a
// finished run), 1 when it never became reachable.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "flags.hpp"
#include "obs/json.hpp"
#include "util/check.hpp"

namespace {

// One blocking HTTP/1.1 GET (Connection: close), body returned. Empty
// optional-style: returns false when the server is unreachable.
bool http_get(const std::string& host, int port, const std::string& path,
              std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return false;
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::write(fd, req.data() + sent, req.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) return false;
  *body = response.substr(split + 4);
  return true;
}

void sleep_ms(int ms) {
  ::usleep(static_cast<useconds_t>(ms) * 1000);
}

// Re-renders one parsed event in the journal's field order (obs/events.cpp
// render_event): slot events lead with seq/slot/kind, lifecycle lines with
// kind/at; value, optional detail, wall_s last.
void print_event(const gc::obs::JsonValue& e) {
  std::string out = "{";
  const auto num = [&e](const char* k) {
    char buf[32];
    const double v = e.at(k).as_number();
    if (v == static_cast<long long>(v))
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    else
      std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  if (e.has("seq")) {
    out += "\"seq\":" + num("seq") + ",\"slot\":" + num("slot") +
           ",\"kind\":\"" + gc::obs::json_escape(e.at("kind").as_string()) +
           "\"";
  } else {
    out += "\"kind\":\"" + gc::obs::json_escape(e.at("kind").as_string()) +
           "\",\"at\":" + num("at");
  }
  out += ",\"value\":" + num("value");
  if (e.has("detail"))
    out += ",\"detail\":\"" +
           gc::obs::json_escape(e.at("detail").as_string()) + "\"";
  if (e.has("wall_s")) {
    char buf[40];
    std::snprintf(buf, sizeof buf, ",\"wall_s\":%.3f",
                  e.at("wall_s").as_number());
    out += buf;
  }
  out += "}";
  std::fputs(out.c_str(), stdout);
  std::fputc('\n', stdout);
}

}  // namespace

int main(int argc, char** argv) {
  namespace flags = gc::flags;
  int port = -1;
  std::string port_file, host = "127.0.0.1";
  unsigned long long since = 0;
  int poll_ms = 500, wait_ms = 10000;
  bool once = false;
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a == "--port") {
        port = flags::read_int(a, flags::next_value(args, i), 1, 65535);
      } else if (a == "--port-file") {
        port_file = flags::next_value(args, i);
      } else if (a == "--host") {
        host = flags::next_value(args, i);
      } else if (a == "--since") {
        since = flags::read_u64(a, flags::next_value(args, i));
      } else if (a == "--poll-ms") {
        poll_ms = flags::read_int(a, flags::next_value(args, i), 1);
      } else if (a == "--wait-ms") {
        wait_ms = flags::read_int(a, flags::next_value(args, i), 0);
      } else if (a == "--once") {
        once = true;
      } else {
        std::fprintf(stderr,
                     "usage: ops_tail (--port N | --port-file P) [--host H] "
                     "[--since K] [--poll-ms N] [--wait-ms N] [--once]\n"
                     "  --port N     int >= 1 and <= 65535\n"
                     "  --since K    int >= 0 (default 0)\n"
                     "  --poll-ms N  int >= 1 (default 500)\n"
                     "  --wait-ms N  int >= 0 (default 10000)\n");
        return 2;
      }
    }
  } catch (const flags::UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (port < 0 && port_file.empty()) {
    std::fprintf(stderr, "error: one of --port / --port-file is required\n");
    return 2;
  }

  // Port discovery: wait for the file greencell_sim --metrics-port-file
  // writes (atomic rename, so a non-empty read is a complete port).
  int waited = 0;
  while (port < 0) {
    std::ifstream pf(port_file);
    if (pf.good()) {
      int p = 0;
      if (pf >> p && p > 0) {
        port = p;
        break;
      }
    }
    if (waited >= wait_ms) {
      std::fprintf(stderr, "error: no port in %s after %d ms\n",
                   port_file.c_str(), wait_ms);
      return 1;
    }
    sleep_ms(50);
    waited += 50;
  }

  bool ever_connected = false;
  waited = 0;
  for (;;) {
    std::string body;
    const std::string path = "/events?since=" + std::to_string(since);
    if (!http_get(host, port, path, &body)) {
      if (ever_connected) return 0;  // the run finished and went away
      if (waited >= wait_ms) {
        std::fprintf(stderr, "error: %s:%d never became reachable\n",
                     host.c_str(), port);
        return 1;
      }
      sleep_ms(poll_ms);
      waited += poll_ms;
      continue;
    }
    ever_connected = true;
    try {
      const gc::obs::JsonValue rec = gc::obs::json_parse(body);
      for (const gc::obs::JsonValue& e : rec.at("events").as_array())
        print_event(e);
      std::fflush(stdout);
      since = static_cast<unsigned long long>(rec.at("next_seq").as_number());
    } catch (const gc::CheckError& e) {
      std::fprintf(stderr, "warning: unparseable /events response: %s\n",
                   e.what());
    }
    if (once) return 0;
    sleep_ms(poll_ms);
  }
}
