// Embedded HTTP/1.1 exporter (docs/OBSERVABILITY.md "Operating live
// runs"): a minimal, dependency-free blocking server on a dedicated thread
// that lets scrapers watch a running simulation without touching its disk
// files.
//
// Endpoints:
//   /metrics        Prometheus text exposition (the same bytes the
//                   SnapshotWriter puts in `path.prom`)
//   /healthz        {"status":"ok"|"alerting", ...} — 200, or 503 while
//                   any critical alert is firing
//   /snapshot.json  the SnapshotWriter JSON body
//   /events?since=K the EventJournal ring from cursor K on, plus the next
//                   cursor ({"events":[...],"next_seq":N}); K is a decimal
//                   u64, bare /events means K = 0, and any other query is
//                   a 400
//
// Concurrency contract: the slot loop NEVER blocks on a reader. At each
// slot boundary the simulator renders an immutable Payload and publish()es
// it — a shared_ptr swap under a small mutex. The serving thread takes a
// reference to whichever payload is current when a request arrives;
// /events reads the journal's own internally-locked ring. Requests are
// served one at a time (accept, read, respond, close) with a short receive
// timeout, which is plenty for scrape traffic and keeps the server ~200
// lines of POSIX sockets.
//
// The exporter binds 127.0.0.1 only: it exposes run state, and anything
// wider belongs behind a real reverse proxy.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace gc::obs {

class EventJournal;

class HttpExporter {
 public:
  // What one scrape can see; immutable once published.
  struct Payload {
    std::string metrics_text;   // /metrics body
    std::string snapshot_json;  // /snapshot.json body
    std::string healthz_json;   // /healthz body
    bool healthy = true;        // false => /healthz answers 503
  };

  // Binds 127.0.0.1:`port` (port 0 = kernel-assigned ephemeral port; read
  // the result from port()) and starts the serving thread. `journal` may
  // be null (the /events endpoint then serves an empty ring). Throws
  // gc::CheckError when the socket cannot be bound.
  HttpExporter(int port, const EventJournal* journal);
  ~HttpExporter();
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  // The bound TCP port.
  int port() const { return port_; }

  // Swaps the current payload; wait-free for readers beyond the pointer
  // swap. Call at slot boundaries from the simulation thread.
  void publish(std::shared_ptr<const Payload> payload);

  // Stops the serving thread (idempotent; the destructor calls it).
  void stop();

 private:
  void serve();
  std::shared_ptr<const Payload> current() const;
  std::string handle(const std::string& path) const;

  const EventJournal* journal_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  int port_ = 0;
  mutable std::mutex mutex_;  // guards payload_
  std::shared_ptr<const Payload> payload_;
  std::thread thread_;
  bool stopped_ = false;
};

}  // namespace gc::obs
