#include "util/fsio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "util/check.hpp"

namespace gc::util {

namespace {

// Fsyncs the directory containing `path` so a freshly renamed entry is
// durable. Best-effort: a filesystem that refuses is not an error.
void fsync_parent_dir(const std::string& path) {
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::fsync(fd);
  ::close(fd);
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view bytes,
                       std::string_view what) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  GC_CHECK_MSG(fd >= 0, "cannot open " << what << " file " << tmp);
  bool ok = true;
  while (ok && !bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  (void)::fsync(fd);
  ok = ::close(fd) == 0 && ok;
  GC_CHECK_MSG(ok, what << " write failed on " << tmp);
  GC_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot move " << what << " into place at " << path);
  fsync_parent_dir(path);
}

namespace {

// Cuts `path` as JsonlWriter's constructor documents.
JsonlTruncation truncate_jsonl_to_slot(const std::string& path,
                                       const std::string& key, int cut_slot) {
  JsonlTruncation result;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return result;
  result.existed = true;
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();

  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;  // start of the first line that does not survive
  bool damaged = false;
  for (std::size_t nl; (nl = data.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    const std::string_view line(data.data() + pos, nl - pos);
    const std::size_t k = line.find(needle);
    if (k != std::string_view::npos) {
      std::size_t v = k + needle.size();
      while (v < line.size() && line[v] == ' ') ++v;
      const std::string num(line.substr(v));
      char* end = nullptr;
      const long slot = std::strtol(num.c_str(), &end, 10);
      // A line damaged where its slot should be starts the damaged tail; a
      // record at or past the cut belongs to a slot the checkpoint never
      // saw. Either way it goes, with everything after it.
      if (num.empty() || end == num.c_str() ||
          !(std::isdigit(static_cast<unsigned char>(num[0])) ||
            num[0] == '-')) {
        damaged = true;
        break;
      }
      if (slot >= cut_slot) {
        result.dropped_lines = std::count(data.begin() + pos, data.end(), '\n');
        break;
      }
    }
    ++result.kept_lines;
  }
  // A final line without its newline was torn by a crash mid-write.
  result.dropped_torn_tail =
      damaged || (pos < data.size() && data.back() != '\n');
  if (pos < data.size()) {
    std::error_code ec;
    std::filesystem::resize_file(path, pos, ec);
    if (ec)  // fall back to rewriting the kept prefix
      write_file_atomic(path, std::string_view(data).substr(0, pos),
                        "JSONL file");
  }
  return result;
}

}  // namespace

JsonlWriter::JsonlWriter(std::string path, const std::string& key,
                         int resume_slot, std::string what)
    : path_(std::move(path)), what_(std::move(what)) {
  if (resume_slot >= 0) {
    cut_ = truncate_jsonl_to_slot(path_, key, resume_slot);
  } else {
    std::error_code ec;
    cut_.existed = std::filesystem::exists(path_, ec);
  }
  file_ = std::fopen(path_.c_str(), appended() ? "ab" : "wb");
  GC_CHECK_MSG(file_ != nullptr, "cannot open " << what_ << ' ' << path_);
}

JsonlWriter::~JsonlWriter() { std::fclose(file_); }

void JsonlWriter::write_line(std::string_view line) {
  GC_CHECK_MSG(std::fwrite(line.data(), 1, line.size(), file_) ==
                       line.size() &&
                   std::fputc('\n', file_) != EOF,
               what_ << " write failed on " << path_);
}

void JsonlWriter::flush() {
  GC_CHECK_MSG(std::fflush(file_) == 0,
               what_ << " flush failed on " << path_);
  (void)::fsync(::fileno(file_));
}

}  // namespace gc::util
