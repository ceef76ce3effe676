// The paper's Fig. 2 claims checked on the committed figure CSVs
// (EXPERIMENTS.md), so a change that re-blesses a figure cannot break a
// claim unnoticed.
//
// Fig. 2(a), fig2a_bounds.csv: the Theorem-5 lower bound never exceeds
// the achieved upper bound, and the gap between them shrinks strictly as V
// grows. The lower bound comes from the matching LP (core/lower_bound.cpp)
// solved by the same simplex as every S1 relaxation.
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

// A numeric CSV with a header row: column name -> values, top to bottom.
std::map<std::string, std::vector<double>> read_csv(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::string line;
  std::vector<std::string> names;
  std::map<std::string, std::vector<double>> cols;
  if (!std::getline(in, line)) return cols;
  std::istringstream header(line);
  for (std::string name; std::getline(header, name, ',');)
    names.push_back(name);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::size_t i = 0;
    for (std::string cell; std::getline(row, cell, ','); ++i) {
      EXPECT_LT(i, names.size()) << path << ": " << line;
      if (i < names.size()) cols[names[i]].push_back(std::stod(cell));
    }
    EXPECT_EQ(i, names.size()) << path << ": " << line;
  }
  return cols;
}

TEST(Fig2Claims, BoundsAreOrderedAndGapShrinksInV) {
  const std::string path = std::string(GC_SOURCE_DIR) + "/fig2a_bounds.csv";
  auto cols = read_csv(path);
  const std::vector<double>& v = cols["V"];
  const std::vector<double>& upper = cols["upper"];
  const std::vector<double>& lower = cols["lower"];
  const std::vector<double>& gap = cols["gap"];
  ASSERT_GE(v.size(), 2u) << path;
  ASSERT_EQ(upper.size(), v.size());
  ASSERT_EQ(lower.size(), v.size());
  ASSERT_EQ(gap.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(lower[i], upper[i]) << "V=" << v[i];
    if (i == 0) continue;
    EXPECT_GT(v[i], v[i - 1]) << "rows must be sorted by V";
    EXPECT_LT(gap[i], gap[i - 1]) << "V=" << v[i - 1] << " -> " << v[i];
  }
}

}  // namespace
