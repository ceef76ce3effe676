// The paper's Fig. 2 claims checked on the committed figure CSVs
// (EXPERIMENTS.md), so a change that re-blesses a figure cannot break a
// claim unnoticed.
//
// Fig. 2(a), fig2a_bounds.csv: the Theorem-5 lower bound never exceeds
// the achieved upper bound, and the gap between them shrinks strictly as V
// grows. The lower bound comes from the matching LP (core/lower_bound.cpp)
// solved by the same simplex as every S1 relaxation.
//
// Fig. 2(b), fig2bc_data_queues.csv: the BS backlog orders by V — its
// second-half mean (the plateau past the cold-start ramp) rises strictly
// with V.
//
// Fig. 2(d), fig2de_energy_buffers.csv: the BS energy buffers order by V at
// every slot — a larger V never holds less, since the z shift makes the
// battery target V(gamma_max - f'(P)) grow with V.
//
// Fig. 2(f), fig2f_architectures.csv (EXPERIMENTS.md §4): per delivered
// packet at the paper's 100 kbps load the paper's architecture ordering
// holds at every V; in raw cost at 50 kbps "ours" is cheapest, and within
// each hop class renewables are cheaper at both loads.
//
// §5c, ablation_radios.csv: a second BS radio buys more delivered packets
// for more energy.
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace {

// A CSV with a header row: column name -> values, top to bottom. Cells of
// the named text columns are skipped; every other cell must be a number.
std::map<std::string, std::vector<double>> read_csv(
    const std::string& path, const std::set<std::string>& text_columns = {}) {
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
      if (i >= names.size() || text_columns.count(names[i]) > 0) continue;
      char* end = nullptr;
      const double x = std::strtod(cell.c_str(), &end);
      EXPECT_TRUE(!cell.empty() && *end == '\0')
          << path << ": column " << names[i] << ": not a number: \"" << cell
          << "\"";
      cols[names[i]].push_back(x);
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

// The rows of a per-slot CSV (columns t, V, `value`) as V -> t -> value.
std::map<double, std::map<int, double>> by_v_and_slot(
    const std::string& path, const std::string& value) {
  auto cols = read_csv(path);
  const std::vector<double>& t = cols["t"];
  const std::vector<double>& v = cols["V"];
  const std::vector<double>& x = cols[value];
  EXPECT_EQ(v.size(), t.size()) << path;
  EXPECT_EQ(x.size(), t.size()) << path;
  std::map<double, std::map<int, double>> out;
  for (std::size_t i = 0; i < t.size() && i < v.size() && i < x.size(); ++i)
    EXPECT_TRUE(out[v[i]].emplace(static_cast<int>(t[i]), x[i]).second)
        << path << ": duplicate row t=" << t[i] << " V=" << v[i];
  return out;
}

TEST(Fig2Claims, BsBacklogPlateauRisesStrictlyWithV) {
  const std::string path =
      std::string(GC_SOURCE_DIR) + "/fig2bc_data_queues.csv";
  const auto runs = by_v_and_slot(path, "q_bs_packets");
  ASSERT_GE(runs.size(), 2u) << path;
  double prev_v = 0.0, prev_mean = 0.0;
  bool first = true;
  for (const auto& [v, series] : runs) {
    ASSERT_GE(series.size(), 2u) << "V=" << v;
    const int horizon = series.rbegin()->first;
    double sum = 0.0;
    int n = 0;
    for (const auto& [t, q] : series)
      if (t > horizon / 2) {
        sum += q;
        ++n;
      }
    const double mean = sum / n;
    if (!first) {
      EXPECT_GT(mean, prev_mean)
          << "second-half mean BS backlog, V=" << prev_v << " -> " << v;
    }
    prev_v = v;
    prev_mean = mean;
    first = false;
  }
}

TEST(Fig2Claims, BsBuffersAreOrderedByVAtEverySlot) {
  const std::string path =
      std::string(GC_SOURCE_DIR) + "/fig2de_energy_buffers.csv";
  const auto runs = by_v_and_slot(path, "battery_bs_kj");
  ASSERT_GE(runs.size(), 2u) << path;
  const std::map<int, double>* prev = nullptr;
  double prev_v = 0.0;
  for (const auto& [v, series] : runs) {
    ASSERT_FALSE(series.empty()) << "V=" << v;
    if (prev != nullptr) {
      ASSERT_EQ(series.size(), prev->size()) << "V=" << v;
      for (const auto& [t, kj] : series) {
        const auto it = prev->find(t);
        ASSERT_NE(it, prev->end()) << "V=" << v << " has slot " << t;
        EXPECT_GE(kj, it->second)
            << "slot " << t << ": BS buffers, V=" << prev_v << " -> " << v;
      }
    }
    prev = &series;
    prev_v = v;
  }
}

// fig2f_architectures.csv as (session rate, V) -> architecture ->
// {avg_cost, delivered_packets}. An architecture is its (multihop,
// renewables) pair; kArchs lists them in the paper's order.
using Arch = std::pair<int, int>;
constexpr Arch kArchs[] = {{1, 1}, {1, 0}, {0, 1}, {0, 0}};
std::map<std::pair<double, double>, std::map<Arch, std::pair<double, double>>>
fig2f_runs() {
  auto cols = read_csv(std::string(GC_SOURCE_DIR) + "/fig2f_architectures.csv",
                       {"arch"});
  std::map<std::pair<double, double>,
           std::map<Arch, std::pair<double, double>>> out;
  for (std::size_t i = 0; i < cols["V"].size(); ++i) {
    auto& archs = out[{cols["session_rate_bps"].at(i), cols["V"].at(i)}];
    const bool fresh =
        archs.emplace(Arch(cols["multihop"].at(i), cols["renewables"].at(i)),
                      std::pair(cols["avg_cost"].at(i),
                                cols["delivered_packets"].at(i)))
            .second;
    EXPECT_TRUE(fresh) << "duplicate row " << i;
  }
  EXPECT_EQ(out.size(), 6u) << "expected 2 loads x 3 values of V";
  return out;
}

TEST(Fig2Claims, ArchitecturesOrderPerDeliveredPacketAtEveryV) {
  for (const auto& [rate_v, archs] : fig2f_runs()) {
    if (rate_v.first != 100000.0) continue;
    ASSERT_EQ(archs.size(), 4u) << "V=" << rate_v.second;
    for (std::size_t k = 1; k < 4; ++k) {
      const auto& [cost_a, delivered_a] = archs.at(kArchs[k - 1]);
      const auto& [cost_b, delivered_b] = archs.at(kArchs[k]);
      EXPECT_LT(cost_a / delivered_a, cost_b / delivered_b)
          << "V=" << rate_v.second << ": cost per delivered packet, rank "
          << k - 1 << " vs " << k;
    }
  }
}

TEST(Fig2Claims, RawCostOursCheapestAndRenewablesCheaperPerHopClass) {
  for (const auto& [rate_v, archs] : fig2f_runs()) {
    const auto& [rate, v] = rate_v;
    ASSERT_EQ(archs.size(), 4u) << rate << " bps, V=" << v;
    const auto cost = [&](Arch a) { return archs.at(a).first; };
    EXPECT_LT(cost({1, 1}), cost({1, 0})) << rate << " bps, V=" << v;
    EXPECT_LT(cost({0, 1}), cost({0, 0})) << rate << " bps, V=" << v;
    for (std::size_t k = 1; rate == 50000.0 && k < 4; ++k)
      EXPECT_LT(cost(kArchs[0]), cost(kArchs[k])) << "V=" << v << ", " << k;
  }
}

TEST(Fig2Claims, SecondBsRadioDeliversMoreForMoreEnergy) {
  auto cols = read_csv(std::string(GC_SOURCE_DIR) + "/ablation_radios.csv");
  // (bs_radios, user_radios) -> (delivered, avg_cost)
  std::map<std::pair<double, double>, std::pair<double, double>> runs;
  for (std::size_t i = 0; i < cols["avg_cost"].size(); ++i)
    runs[{cols["bs_radios"].at(i), cols["user_radios"].at(i)}] = {
        cols["delivered"].at(i), cols["avg_cost"].at(i)};
  ASSERT_TRUE(runs.count({1, 1}) && runs.count({2, 1}));
  const auto& [delivered_1, cost_1] = runs[{1, 1}];
  const auto& [delivered_2, cost_2] = runs[{2, 1}];
  EXPECT_GT(delivered_2, delivered_1);
  EXPECT_GT(cost_2, cost_1);
}

}  // namespace
