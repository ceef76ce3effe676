// Mutation fuzzer for the JSON spec readers (obs::JsonReader behind the
// scenario, fault and alert specs). Seeded and deterministic, with no
// external engine: each seed document is mutated by byte edits,
// truncation, numeric swaps to edge values and misspelt keys. Every mutant
// must either parse or throw gc::CheckError; anything else (another
// exception type, or a sanitizer report in the ASan/UBSan CI job) fails.
// A scenario that parses must also survive its own canonical dump: the dump
// re-parses to the same hash and the same dump.
//
// Seeds: every committed example scenario, the fault spec example in
// docs/ROBUSTNESS.md and the alert rules example in docs/OBSERVABILITY.md,
// so the documented examples are checked to parse as well.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "fault/fault_schedule.hpp"
#include "obs/alerts.hpp"
#include "scenario/spec.hpp"
#include "util/check.hpp"

namespace gc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The first ```json block after `heading` in a markdown file.
std::string doc_example(const std::string& doc, const std::string& heading) {
  const std::string text = slurp(std::string(GC_DOCS_DIR) + "/" + doc);
  const std::size_t at = text.find(heading);
  EXPECT_NE(at, std::string::npos) << heading;
  const std::size_t open = text.find("```json\n", at);
  EXPECT_NE(open, std::string::npos) << heading;
  const std::size_t begin = open + 8;
  return text.substr(begin, text.find("```", begin) - begin);
}

bool number_char(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
         c == '+' || c == '.' || c == 'e' || c == 'E';
}

// One seeded mutant of `text`.
std::string mutate(const std::string& text, std::mt19937_64& gen) {
  std::string s = text;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(gen() % n);
  };
  switch (gen() % 4) {
    case 0: {  // number tokens swapped for edge values
      static const char* const kEdges[] = {
          "1e300", "-1", "0.5", "-0", "0", "1e10", "2147483648",
          "18446744073709551616", "1e-320", "2.7"};
      std::vector<std::size_t> starts;
      for (std::size_t i = 1; i < s.size(); ++i)
        if ((std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-') &&
            !number_char(s[i - 1]) && s[i - 1] != '"' &&
            !std::isalpha(static_cast<unsigned char>(s[i - 1])))
          starts.push_back(i);
      if (starts.empty()) break;
      const std::size_t b = starts[pick(starts.size())];
      std::size_t e = b;
      while (e < s.size() && number_char(s[e])) ++e;
      s.replace(b, e - b, kEdges[pick(std::size(kEdges))]);
      return s;
    }
    case 1: {  // a key misspelt: a letter dropped, doubled or appended
      std::vector<std::pair<std::size_t, std::size_t>> keys;
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '"') continue;
        const std::size_t end = s.find('"', i + 1);
        if (end == std::string::npos) break;
        std::size_t after = end + 1;
        while (after < s.size() &&
               std::isspace(static_cast<unsigned char>(s[after])))
          ++after;
        if (after < s.size() && s[after] == ':' && end > i + 1)
          keys.emplace_back(i + 1, end);
        i = end;
      }
      if (keys.empty()) break;
      const auto [b, e] = keys[pick(keys.size())];
      const std::size_t at = b + pick(e - b);
      switch (gen() % 3) {
        case 0: s.erase(at, 1); break;
        case 1: s.insert(at, 1, s[at]); break;
        default: s.insert(e, 1, 's'); break;
      }
      return s;
    }
    case 2:  // truncation
      s.resize(pick(s.size()));
      return s;
    default:
      break;
  }
  // Byte edits, half of them JSON punctuation and number characters.
  static const char kBytes[] = "{}[]\":,-.0123456789eE \\tn";
  const int edits = 1 + static_cast<int>(gen() % 3);
  for (int i = 0; i < edits; ++i)
    s[pick(s.size())] = gen() % 2 ? kBytes[pick(sizeof kBytes - 1)]
                                  : static_cast<char>(gen() & 0xff);
  return s;
}

// Feeds `trials` mutants of every seed to parse(text), which must return
// normally or throw CheckError; returns how many parsed.
template <class Parse>
int fuzz(const std::vector<std::string>& seeds, int trials, Parse parse) {
  std::mt19937_64 gen(20140630);
  int parsed = 0;
  for (const std::string& seed : seeds) {
    parse(seed);  // every seed itself parses
    for (int t = 0; t < trials; ++t) {
      const std::string text = mutate(seed, gen);
      try {
        parse(text);
        ++parsed;
      } catch (const CheckError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << typeid(e).name() << ": " << e.what() << "\n"
                      << text;
      }
    }
  }
  // Both outcomes occur, so the mutants neither all bounce off the
  // parser nor all miss the validation.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, static_cast<int>(seeds.size()) * trials);
  return parsed;
}

TEST(JsonSpecFuzz, ScenarioSpecsParseOrThrowAndRoundTrip) {
  std::vector<std::string> seeds;
  for (const char* name :
       {"paper_baseline.json", "hex_16bs_500users.json",
        "hex_16bs_500users_sleep.json", "hex_36bs_1000users.json",
        "diurnal_solar_tou.json", "flash_crowd.json",
        "hetnet_sleep_tou.json"})
    seeds.push_back(
        slurp(std::string(GC_SCENARIO_EXAMPLES_DIR) + "/" + name));
  fuzz(seeds, 600, [](const std::string& text) {
    const scenario::ScenarioSpec s = scenario::parse_scenario_json(text);
    const std::string dump = scenario::to_json(s);
    scenario::ScenarioSpec back;
    try {
      back = scenario::parse_scenario_json(dump);
    } catch (const CheckError& e) {
      ADD_FAILURE() << "canonical dump does not parse: " << e.what() << "\n"
                    << dump;
      return;
    }
    EXPECT_EQ(scenario::scenario_hash(back), scenario::scenario_hash(s));
    EXPECT_EQ(scenario::to_json(back), dump);
  });
}

TEST(JsonSpecFuzz, FaultSpecsParseOrThrow) {
  const std::string doc = doc_example("ROBUSTNESS.md", "### JSON spec");
  fuzz({doc}, 3000, [](const std::string& text) {
    const fault::FaultSchedule s = fault::FaultSchedule::from_json(text, 8);
    for (int t : {0, 7, 999}) (void)s.at(t);
  });
}

TEST(JsonSpecFuzz, AlertRulesParseOrThrow) {
  const std::string doc = doc_example("OBSERVABILITY.md", "### Alert rules");
  fuzz({doc}, 3000, [](const std::string& text) {
    (void)obs::AlertEngine::from_json(text).rules_hash();
  });
}

}  // namespace
}  // namespace gc
