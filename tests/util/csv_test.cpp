#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace gc {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// One file per test: ctest -j runs the tests of this fixture as parallel
// processes, so a shared path would let one read or delete another's file.
class CsvTest : public ::testing::Test {
 protected:
  std::string path_ =
      ::testing::TempDir() + "gc_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, HeaderAndRows) {
  {
    CsvWriter w(path_, {"t", "cost"});
    w.row({0, 1.5});
    w.row({1, 2.25});
  }
  EXPECT_EQ(read_all(path_), "t,cost\n0,1.5\n1,2.25\n");
}

TEST_F(CsvTest, ArityMismatchThrows) {
  CsvWriter w(path_, {"a", "b"});
  EXPECT_THROW(w.row({1.0}), CheckError);
}

TEST_F(CsvTest, StringRows) {
  {
    CsvWriter w(path_, {"name", "value"});
    w.row_strings({"upper", "12"});
  }
  EXPECT_EQ(read_all(path_), "name,value\nupper,12\n");
}

TEST(FormatNumber, Basics) {
  EXPECT_EQ(format_number(1.0), "1");
  EXPECT_EQ(format_number(0.5), "0.5");
  EXPECT_EQ(format_number(-3.25), "-3.25");
  EXPECT_EQ(format_number(std::nan("")), "nan");
}

TEST(FormatNumber, LargeValuesCompact) {
  EXPECT_EQ(format_number(1e12), "1e+12");
}

}  // namespace
}  // namespace gc
