// util::write_file_atomic, the one writer behind every whole-file output:
// it replaces the target in one rename, leaves no temp file behind, and on
// failure throws a CheckError naming the file while the old file survives.
#include "util/fsio.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "util/check.hpp"

namespace gc::util {
namespace {

namespace fs = std::filesystem;

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class Fsio : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the tests as parallel processes.
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("gc_fsio_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(Fsio, WriteFileAtomicReplacesAndLeavesNoTmp) {
  const std::string target = path("out.bin");
  write_file_atomic(target, "first version, longer than the second\n", "test");
  EXPECT_EQ(read_all(target), "first version, longer than the second\n");

  // Binary bytes (embedded NULs included) replace the old file whole.
  const std::string bytes("second\0v2", 9);
  write_file_atomic(target, bytes, "test");
  EXPECT_EQ(read_all(target), bytes);
  EXPECT_FALSE(fs::exists(target + ".tmp"));

  write_file_atomic(target, "", "test");
  EXPECT_EQ(fs::file_size(target), 0u);
  EXPECT_FALSE(fs::exists(target + ".tmp"));
}

TEST_F(Fsio, MissingDirectoryThrowsNamingWhat) {
  const std::string target = path("no_such_dir/out.json");
  try {
    write_file_atomic(target, "{}\n", "widget report");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("widget report"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(path("no_such_dir")));
}

TEST_F(Fsio, FailedWriteLeavesThePreviousFileIntact) {
  const std::string target = path("keep.json");
  write_file_atomic(target, "old\n", "test");
  // A directory squatting on the temp name makes the write fail before the
  // rename; the reader-visible file must still hold the old bytes.
  fs::create_directory(target + ".tmp");
  EXPECT_THROW(write_file_atomic(target, "new\n", "test"), CheckError);
  EXPECT_EQ(read_all(target), "old\n");
}

}  // namespace
}  // namespace gc::util
