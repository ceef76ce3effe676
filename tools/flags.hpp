// Checked readers for command-line flag values and environment variables,
// shared by every binary under tools/ and bench/.
//
// Each reader takes the whole string or nothing: "2x", "3 ", "" and "nan"
// are malformed, never a prefix read as 2 or 0. Numbers are plain decimal
// ("3e2" is 300): " 3", "+3" and "0x10" are malformed too. A malformed or
// out-of-domain value throws UsageError naming the flag (or variable) and
// the accepted domain,
//   --users: expected int >= 1, got "abc"
// which the binaries print before exiting with code 2.
#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace gc::flags {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Throws `FLAG: expected DOMAIN, got "V"`.
[[noreturn]] void reject(const std::string& flag, const std::string& domain,
                         const std::string& v);

// The value after the flag args[i], advancing i onto it; throws
// `FLAG: missing value` at the end of args.
const std::string& next_value(const std::vector<std::string>& args,
                              std::size_t& i);

// An exact integer in [lo, hi] ("int >= LO", or "int >= LO and <= HI" when
// hi is below INT_MAX). Exponent forms that are whole numbers count:
// "3e2" reads as 300.
int read_int(const std::string& flag, const std::string& v, int lo,
             int hi = INT_MAX);
// A finite number >= lo, or > lo when lo_open ("number >= 0").
double read_number(const std::string& flag, const std::string& v, double lo,
                   bool lo_open = false);
// A plain decimal integer in [0, 2^64), exact at any width (seeds,
// cursors): "int >= 0".
std::uint64_t read_u64(const std::string& flag, const std::string& v);
// One of `names`, returned as its index:
//   --link-prune: expected "on" or "off", got "yes"
namespace detail {
std::size_t read_choice(const std::string& flag, const std::string& v,
                        const char* const* names, std::size_t n);
}  // namespace detail
template <std::size_t N>
std::size_t read_choice(const std::string& flag, const std::string& v,
                        const char* const (&names)[N]) {
  return detail::read_choice(flag, v, names, N);
}
// "0" or "1".
bool read_bool01(const std::string& flag, const std::string& v);
// A non-empty file path.
std::string read_path(const std::string& flag, const std::string& v);

// Environment variable `name` read by read_int; `fallback` when it is
// unset or empty.
int env_int(const char* name, int fallback, int lo, int hi = INT_MAX);

}  // namespace gc::flags
