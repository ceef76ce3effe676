#include "flags.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

namespace gc::flags {
namespace {

// The message of the UsageError `read` throws; "" when it returns.
std::string error_of(const std::function<void()>& read) {
  try {
    read();
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, RejectionNamesFlagDomainAndValue) {
  EXPECT_EQ(error_of([] { read_int("--users", "abc", 1); }),
            "--users: expected int >= 1, got \"abc\"");
  EXPECT_EQ(error_of([] { read_int("--port", "2x", 0, 65535); }),
            "--port: expected int >= 0 and <= 65535, got \"2x\"");
  EXPECT_EQ(error_of([] { read_number("--V", "nan", 0); }),
            "--V: expected number >= 0, got \"nan\"");
  EXPECT_EQ(error_of([] { read_number("--area", "0", 0, true); }),
            "--area: expected number > 0, got \"0\"");
  EXPECT_EQ(error_of([] { read_u64("--seed", "-1"); }),
            "--seed: expected int >= 0, got \"-1\"");
  EXPECT_EQ(error_of([] { read_bool01("--multihop", "yes"); }),
            "--multihop: expected 0 or 1, got \"yes\"");
  EXPECT_EQ(error_of([] { read_path("--csv", ""); }),
            "--csv: expected a non-empty file path, got \"\"");
  EXPECT_EQ(error_of([] { read_choice("--prune", "yes", {"on", "off"}); }),
            "--prune: expected \"on\" or \"off\", got \"yes\"");
  EXPECT_EQ(error_of([] { read_choice("--p", "d", {"a", "b", "c"}); }),
            "--p: expected \"a\", \"b\" or \"c\", got \"d\"");
}

// Every reader takes the whole string: a numeric prefix ("2x"), an empty
// value, non-finite numbers and overflow are all rejected rather than read
// as a nearby number.
TEST(Flags, RejectsMalformedValuesInEveryDomain) {
  for (const char* v : {"2x", "", "7 ", " 7", "0x10", "+7", "nan", "inf",
                        "-inf", "1.5", "1e10", "2147483648", "-2147483649"}) {
    EXPECT_NE(error_of([&] { read_int("--n", v, INT_MIN); }), "") << v;
    EXPECT_NE(error_of([&] { read_int("--port", v, 0, 65535); }), "") << v;
  }
  for (const char* v :
       {"2x", "", "nan", "inf", "-inf", "1e400", "1,5", " 7", "0x10", "+7"})
    EXPECT_NE(error_of([&] { read_number("--x", v, -1e300); }), "") << v;
  for (const char* v : {"2x", "", "nan", "inf", "-1", "1.5", "1e3", " 7",
                        "+7", "18446744073709551616"})
    EXPECT_NE(error_of([&] { read_u64("--seed", v); }), "") << v;
  for (const char* v : {"", "2", "true", "01", " 1"})
    EXPECT_NE(error_of([&] { read_bool01("--b", v); }), "") << v;
}

TEST(Flags, AcceptsEveryValueInTheDomain) {
  // "3e2" is the whole number 300, never 3 (the old atoi reading).
  EXPECT_EQ(read_int("--slots", "3e2", 0), 300);
  EXPECT_EQ(read_int("--slots", "2147483647", 0), 2147483647);
  EXPECT_EQ(read_int("--n", "-5", -5, -5), -5);
  EXPECT_EQ(read_int("--port", "0", 0, 65535), 0);
  EXPECT_EQ(read_int("--port", "65535", 0, 65535), 65535);
  EXPECT_EQ(read_number("--mobility", "1e300", 0), 1e300);
  EXPECT_EQ(read_number("--tolerance", "0.05", 0), 0.05);
  EXPECT_EQ(read_u64("--seed", "18446744073709551615"),
            18446744073709551615u);
  EXPECT_TRUE(read_bool01("--b", "1"));
  EXPECT_FALSE(read_bool01("--b", "0"));
  EXPECT_EQ(read_path("--csv", "out.csv"), "out.csv");
  EXPECT_EQ(read_choice("--prune", "off", {"on", "off"}), 1u);
}

TEST(Flags, EnforcesLowerAndUpperBounds) {
  EXPECT_NE(error_of([] { read_int("--users", "0", 1); }), "");
  EXPECT_NE(error_of([] { read_number("--V", "-0.5", 0); }), "");
  for (const char* v : {"-1", "65536", "100000", "2147483647"})
    EXPECT_EQ(error_of([&] { read_int("--port", v, 0, 65535); }),
              std::string("--port: expected int >= 0 and <= 65535, got \"") +
                  v + "\"")
        << v;
}

TEST(Flags, NextValueAdvancesOrReportsTheMissingValue) {
  const std::vector<std::string> args = {"--slots", "5", "--csv"};
  std::size_t i = 0;
  EXPECT_EQ(next_value(args, i), "5");
  EXPECT_EQ(i, 1u);
  i = 2;
  EXPECT_EQ(error_of([&] { next_value(args, i); }),
            "--csv: missing value");
  EXPECT_EQ(i, 2u);
}

TEST(Flags, EnvIntReadsTheVariableThroughTheSameChecks) {
  const char* name = "GC_FLAGS_TEST_COUNT";
  ::unsetenv(name);
  EXPECT_EQ(env_int(name, 7, 0, 256), 7);
  ::setenv(name, "", 1);
  EXPECT_EQ(env_int(name, 7, 0, 256), 7);
  ::setenv(name, "4", 1);
  EXPECT_EQ(env_int(name, 7, 0, 256), 4);
  for (const char* v : {"2x", "nan", "-1", "100000"}) {
    ::setenv(name, v, 1);
    EXPECT_EQ(error_of([&] { env_int(name, 7, 0, 256); }),
              std::string(name) + ": expected int >= 0 and <= 256, got \"" +
                  v + "\"")
        << v;
  }
  ::unsetenv(name);
}

}  // namespace
}  // namespace gc::flags
