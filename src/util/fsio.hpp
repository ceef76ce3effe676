// Filesystem durability helpers (docs/ROBUSTNESS.md "Operating long runs").
//
// write_file_atomic is the one writer behind every whole-file output
// (checkpoint generations, metrics snapshots, profiles,
// span traces and the metrics-port file). A tmp + rename
// write protects readers from torn files but does not make the data
// durable: after a power loss the rename may survive while the file's
// blocks are still unwritten. It therefore fsyncs the data before the
// rename and, best-effort, the containing directory after it, so the
// directory entry itself reaches disk.
//
// JsonlWriter is the one file behind every per-slot JSONL sink (trace, LP
// solve log, event journal) and the resume side of the same story: a
// crashed run's sink may hold records past the last durable checkpoint plus
// a torn final line. Opening at the checkpoint's slot (sim::auto_resume_slot)
// cuts those off before appending, so the killed+resumed run's output is
// identical to an uninterrupted run's.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace gc::util {

// Replaces `path` with `bytes`: writes `path`.tmp, checking every write,
// fsyncs it through the same descriptor (best effort: some filesystems
// refuse fsync), renames it over `path`, then fsyncs the parent directory.
// Readers see the old file or the new one, never a mix. `what` names the
// file in errors ("checkpoint"). Throws gc::CheckError when the file cannot
// be written or moved into place; `path` is then left as it was.
void write_file_atomic(const std::string& path, std::string_view bytes,
                       std::string_view what);

// Result of cutting a JSONL file back to a slot boundary (JsonlWriter).
struct JsonlTruncation {
  bool existed = false;        // false: nothing to do (fresh file)
  std::int64_t kept_lines = 0;     // complete lines before the cut
  std::int64_t dropped_lines = 0;  // complete lines at/after the cut slot
  bool dropped_torn_tail = false;  // a final unterminated line was cut
};

// One JSONL output file, opened fresh or resumed at a slot cut. Every write
// and flush is checked (a full disk throws instead of letting the next
// checkpoint land ahead of its sinks); flush() also fsyncs. Not
// thread-safe: the sinks that hold one serialize their own writes.
class JsonlWriter {
 public:
  // resume_slot < 0 starts `path` fresh (truncated). resume_slot >= 0 cuts
  // it so it ends just before the first complete line whose `"key":<int>`
  // value is >= resume_slot — lines without the key (the trace header,
  // lifecycle events) are kept; a torn final line (no trailing newline) or
  // a line whose key cannot be parsed starts the damaged tail and is cut
  // with everything after it — then appends after whatever survived.
  // `what` names the file in errors ("trace file"). Throws gc::CheckError
  // when the file cannot be opened or cut.
  JsonlWriter(std::string path, const std::string& key, int resume_slot,
              std::string what);
  ~JsonlWriter();
  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  // Appends `line` plus a newline.
  void write_line(std::string_view line);
  // Durability point: flushes, then fsyncs (best effort — some filesystems
  // refuse fsync) so every complete line survives a SIGKILL.
  void flush();

  // What the resume cut found (a fresh open reports only `existed`).
  const JsonlTruncation& cut() const { return cut_; }
  // True when the file continues a kept prefix instead of starting empty.
  bool appended() const { return cut_.kept_lines > 0; }

 private:
  std::string path_;
  std::string what_;
  JsonlTruncation cut_;
  std::FILE* file_ = nullptr;
};

}  // namespace gc::util
