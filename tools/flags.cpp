#include "flags.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace gc::flags {

namespace {

// Finite decimal numbers only: "nan" and "inf" pass every `d < 0` domain
// check and would surface far from the flag that carried them. from_chars
// reads no leading whitespace, no '+' and no hexadecimal, unlike strtod.
bool parse_double(const std::string& v, double* out) {
  const char* end = v.data() + v.size();
  const auto [stop, ec] = std::from_chars(v.data(), end, *out);
  return ec == std::errc() && stop == end && std::isfinite(*out);
}

}  // namespace

void reject(const std::string& flag, const std::string& domain,
            const std::string& v) {
  throw UsageError(flag + ": expected " + domain + ", got \"" + v + "\"");
}

const std::string& next_value(const std::vector<std::string>& args,
                              std::size_t& i) {
  if (i + 1 >= args.size()) throw UsageError(args[i] + ": missing value");
  return args[++i];
}

int read_int(const std::string& flag, const std::string& v, int lo, int hi) {
  // The range check comes before the cast: casting an out-of-range double
  // to int is undefined.
  double d;
  if (!parse_double(v, &d) || d != std::trunc(d) || d < lo || d > hi)
    reject(flag,
           "int >= " + std::to_string(lo) +
               (hi < INT_MAX ? " and <= " + std::to_string(hi) : ""),
           v);
  return static_cast<int>(d);
}

double read_number(const std::string& flag, const std::string& v, double lo,
                   bool lo_open) {
  double d;
  if (!parse_double(v, &d) || d < lo || (lo_open && d == lo)) {
    std::ostringstream domain;
    domain << "number " << (lo_open ? "> " : ">= ") << lo;
    reject(flag, domain.str(), v);
  }
  return d;
}

std::uint64_t read_u64(const std::string& flag, const std::string& v) {
  std::uint64_t out = 0;
  const char* end = v.data() + v.size();
  const auto [stop, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc() || stop != end) reject(flag, "int >= 0", v);
  return out;
}

std::size_t detail::read_choice(const std::string& flag, const std::string& v,
                                const char* const* names, std::size_t n) {
  std::string domain;
  for (std::size_t i = 0; i < n; ++i) {
    if (v == names[i]) return i;
    domain += std::string(i == 0 ? "" : i + 1 < n ? ", " : " or ") + '"' +
              names[i] + '"';
  }
  reject(flag, domain, v);
}

bool read_bool01(const std::string& flag, const std::string& v) {
  if (v != "0" && v != "1") reject(flag, "0 or 1", v);
  return v == "1";
}

std::string read_path(const std::string& flag, const std::string& v) {
  if (v.empty()) reject(flag, "a non-empty file path", v);
  return v;
}

int env_int(const char* name, int fallback, int lo, int hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return read_int(name, v, lo, hi);
}

}  // namespace gc::flags
