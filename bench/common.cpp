#include "common.hpp"

#include <cstdio>
#include <cstdlib>

#include "flags.hpp"

namespace gc::bench {

int env_int(const char* name, int fallback, int lo, int hi) {
  try {
    return flags::env_int(name, fallback, lo, hi);
  } catch (const flags::UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

bool full_repro() { return env_int("REPRO_FULL", 0, 0, 1) != 0; }

int horizon(int fast) {
  const int forced = env_int("REPRO_SLOTS", 0, 0);
  if (forced > 0) return forced;
  return full_repro() ? 100 : fast;
}

void print_title(const std::string& title, const std::string& subtitle) {
  std::printf("\n== %s ==\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf("\n");
}

void print_row(const std::vector<std::string>& cells, int width) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

std::string num(double v) { return format_number(v); }

}  // namespace gc::bench
