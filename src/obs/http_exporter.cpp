#include "obs/http_exporter.hpp"

#include <charconv>
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "obs/events.hpp"
#include "util/check.hpp"

namespace gc::obs {

namespace {

std::string http_response(const char* status, const char* content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

// Writes the whole buffer, tolerating short writes; best-effort (a scraper
// hanging up mid-response is its problem, not the run's).
void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

// The ring cursor of an /events request: 0 for bare "/events", the value
// of "/events?since=N" when N is a decimal that fits in 64 bits, and
// nothing for any other query.
std::optional<std::uint64_t> events_since(const std::string& path) {
  if (path == "/events") return 0;
  constexpr std::string_view prefix = "/events?since=";
  if (path.rfind(prefix, 0) != 0) return std::nullopt;
  const char* first = path.data() + prefix.size();
  const char* last = path.data() + path.size();
  std::uint64_t since = 0;
  const auto [end, ec] = std::from_chars(first, last, since);
  if (ec != std::errc() || end != last) return std::nullopt;
  return since;
}

}  // namespace

HttpExporter::HttpExporter(int port, const EventJournal* journal)
    : journal_(journal) {
  GC_CHECK_MSG(port >= 0 && port <= 65535,
               "metrics port must be in [0, 65535], got " << port);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  GC_CHECK_MSG(listen_fd_ >= 0, "metrics exporter: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    GC_CHECK_MSG(false, "metrics exporter: cannot bind 127.0.0.1:" << port);
  }
  socklen_t len = sizeof addr;
  GC_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         &len) == 0);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  GC_CHECK_MSG(::pipe(stop_pipe_) == 0, "metrics exporter: pipe() failed");
  payload_ = std::make_shared<const Payload>();
  thread_ = std::thread([this] { serve(); });
}

HttpExporter::~HttpExporter() { stop(); }

void HttpExporter::stop() {
  if (stopped_) return;
  stopped_ = true;
  const char byte = 'x';
  (void)!::write(stop_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  listen_fd_ = -1;
}

void HttpExporter::publish(std::shared_ptr<const Payload> payload) {
  GC_CHECK(payload != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  payload_ = std::move(payload);
}

std::shared_ptr<const HttpExporter::Payload> HttpExporter::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return payload_;
}

std::string HttpExporter::handle(const std::string& path) const {
  const std::shared_ptr<const Payload> p = current();
  if (path == "/metrics")
    return http_response("200 OK", "text/plain; version=0.0.4",
                         p->metrics_text);
  if (path == "/snapshot.json")
    return http_response("200 OK", "application/json", p->snapshot_json);
  if (path == "/healthz")
    return http_response(p->healthy ? "200 OK" : "503 Service Unavailable",
                         "application/json", p->healthz_json);
  if (path == "/events" || path.rfind("/events?", 0) == 0) {
    const std::optional<std::uint64_t> since = events_since(path);
    if (!since)
      return http_response("400 Bad Request", "text/plain", "bad request\n");
    std::uint64_t next = 0;
    std::string body = "{\"events\":[";
    if (journal_ != nullptr) {
      const std::vector<std::string> events =
          journal_->ring_since(*since, &next);
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (i) body += ',';
        body += events[i];
      }
    }
    body += "],\"next_seq\":";
    body += std::to_string(next);
    body += "}\n";
    return http_response("200 OK", "application/json", body);
  }
  return http_response("404 Not Found", "text/plain", "not found\n");
}

void HttpExporter::serve() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) continue;  // EINTR
    if (fds[1].revents != 0) return;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // A stalled client must not wedge the serving thread forever.
    timeval tv = {2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    // Read until the end of the request head (we never need a body).
    std::string req;
    char buf[2048];
    while (req.size() < 16384 && req.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) break;
      req.append(buf, static_cast<std::size_t>(n));
    }
    // "GET <path> HTTP/1.1" — anything else is a 400.
    std::string response;
    if (req.rfind("GET ", 0) == 0) {
      const std::string::size_type end = req.find(' ', 4);
      if (end != std::string::npos)
        response = handle(req.substr(4, end - 4));
    }
    if (response.empty())
      response =
          http_response("400 Bad Request", "text/plain", "bad request\n");
    write_all(fd, response);
    ::close(fd);
  }
}

}  // namespace gc::obs
