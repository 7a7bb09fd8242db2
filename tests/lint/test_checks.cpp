// End-to-end fixture tests for every cpm_lint check family.
//
// Each family has a fixture tree under tests/lint/fixtures/tree/ with
// positive, suppressed, and negative cases, plus a frozen golden report.
// Running the family over the tree must reproduce the golden byte-for-byte,
// so a check that is disabled, weakened, or broken fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline.h"
#include "driver.h"
#include "report.h"

namespace {

const std::string kFixtures = CPM_LINT_FIXTURES_DIR;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing file: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

cpm_lint::RunResult run_family(const std::string& check) {
  cpm_lint::Options opts;
  opts.root = kFixtures + "/tree";
  opts.checks = {check};
  cpm_lint::RunResult result = cpm_lint::run_lint(opts);
  EXPECT_FALSE(result.io_error) << result.error_message;
  return result;
}

std::string report_text(const cpm_lint::RunResult& result) {
  std::ostringstream out;
  cpm_lint::write_text_report(out, result.findings, result.files_scanned,
                              result.suppressed.size(),
                              result.baselined.size());
  return out.str();
}

// Golden comparison + the structural invariants the golden alone cannot
// express: the run must produce findings (a silently disabled check would
// otherwise "match" an accidentally empty golden) and must exercise the
// suppression path.
void expect_family_matches_golden(const std::string& check,
                                  std::size_t min_findings,
                                  std::size_t min_suppressed) {
  const cpm_lint::RunResult result = run_family(check);
  EXPECT_GE(result.findings.size(), min_findings) << check;
  EXPECT_GE(result.suppressed.size(), min_suppressed) << check;
  for (const auto& f : result.findings) EXPECT_EQ(f.check, check);
  EXPECT_EQ(report_text(result),
            read_file(kFixtures + "/golden/" + check + ".txt"));
}

TEST(CheckFamilies, Determinism) {
  expect_family_matches_golden("determinism", 9, 4);
}

TEST(CheckFamilies, ParallelCapture) {
  expect_family_matches_golden("parallel-capture", 4, 2);
}

TEST(CheckFamilies, FpRepro) { expect_family_matches_golden("fp-repro", 3, 1); }

TEST(CheckFamilies, Layering) {
  expect_family_matches_golden("layering", 2, 1);
}

TEST(CheckFamilies, Units) { expect_family_matches_golden("units", 8, 2); }

TEST(CheckFamilies, Orphan) { expect_family_matches_golden("orphan", 3, 1); }

// Selecting one family must not leak findings from another: the fixture tree
// trips every check, so a units-only run reporting determinism findings means
// check selection is broken.
TEST(CheckFamilies, SelectionIsExclusive) {
  const cpm_lint::RunResult result = run_family("units");
  for (const auto& f : result.findings) EXPECT_EQ(f.check, "units");
  for (const auto& f : result.suppressed) EXPECT_EQ(f.check, "units");
}

// All six families must be registered; a family dropped from the registry
// would silently stop running everywhere.
TEST(CheckFamilies, RegistryIsComplete) {
  const std::vector<std::string> names = cpm_lint::check_names();
  for (const char* expected : {"determinism", "parallel-capture", "fp-repro",
                               "layering", "units", "orphan"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

// An allow() comment with no trailing reason is inert: it suppresses
// nothing, and is itself reported under the "suppression" pseudo-family --
// so omitting the reason can never be a cheaper path than writing one.
TEST(Suppressions, BareAllowIsInertAndReported) {
  cpm_lint::Options opts;
  opts.root = kFixtures + "/bare";
  cpm_lint::RunResult result = cpm_lint::run_lint(opts);
  ASSERT_FALSE(result.io_error) << result.error_message;
  ASSERT_EQ(result.findings.size(), 2u);
  std::set<std::string> checks;
  for (const auto& f : result.findings) {
    EXPECT_EQ(f.rel_path, "src/util/bare.cpp");
    checks.insert(f.check);
  }
  EXPECT_TRUE(checks.count("suppression"));
  EXPECT_TRUE(checks.count("determinism"));
  EXPECT_EQ(result.suppressed.size(), 0u);
}

// Round trip: a baseline written from a dirty run absorbs every finding on
// the next run, and absorbs them as `baselined`, not silently.
TEST(BaselineTest, RoundTripAbsorbsEverything) {
  cpm_lint::Options opts;
  opts.root = kFixtures + "/tree";
  const cpm_lint::RunResult dirty = cpm_lint::run_lint(opts);
  ASSERT_FALSE(dirty.io_error) << dirty.error_message;
  ASSERT_GT(dirty.findings.size(), 0u);

  const std::string baseline_path =
      testing::TempDir() + "/cpm_lint_baseline_roundtrip.txt";
  {
    std::ofstream out(baseline_path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << cpm_lint::Baseline::serialize(dirty.findings);
  }

  opts.baseline_path = baseline_path;
  const cpm_lint::RunResult clean = cpm_lint::run_lint(opts);
  EXPECT_EQ(clean.findings.size(), 0u);
  EXPECT_EQ(clean.baselined.size(), dirty.findings.size());
  std::remove(baseline_path.c_str());
}

// Baseline entries are consumed one-for-one: one entry cannot absorb two
// findings with the same fingerprint.
TEST(BaselineTest, DuplicateFingerprintsAreCounted) {
  cpm_lint::Finding f;
  f.check = "units";
  f.rel_path = "src/core/x.h";
  f.line = 10;
  f.message = "msg";
  f.line_text = "  void set(double budget_w);";
  cpm_lint::Finding g = f;
  g.line = 20;  // same trimmed text, different line -> same fingerprint
  EXPECT_EQ(cpm_lint::Baseline::fingerprint(f),
            cpm_lint::Baseline::fingerprint(g));

  const std::string baseline_path =
      testing::TempDir() + "/cpm_lint_baseline_dup.txt";
  {
    std::ofstream out(baseline_path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << cpm_lint::Baseline::serialize({f});  // ONE entry
  }
  cpm_lint::Baseline baseline;
  ASSERT_TRUE(baseline.load(baseline_path));
  EXPECT_TRUE(baseline.absorb(f));
  EXPECT_FALSE(baseline.absorb(g)) << "one entry absorbed two findings";
  std::remove(baseline_path.c_str());
}

// The SARIF document must at least parse as the shapes CI relies on; pin the
// load-bearing fields rather than the whole byte stream.
TEST(Sarif, ContainsRulesAndResults) {
  const cpm_lint::RunResult result = run_family("units");
  const std::string doc =
      cpm_lint::sarif_document(result.findings, cpm_lint::all_checks());
  EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(doc.find("\"id\": \"units\""), std::string::npos);
  EXPECT_NE(doc.find("src/core/units_api.h"), std::string::npos);
  EXPECT_NE(doc.find("\"results\""), std::string::npos);
}

// Parity with the retired scripts/lint_units.py: every problem the Python
// linter reported on the frozen fixture tree must be caught by
// `cpm_lint --check=units` (as a finding or an inline-suppressed finding).
// The golden was produced by the real script before its removal.
TEST(UnitsParity, SupersetOfPythonLinter) {
  const std::string python = read_file(kFixtures + "/golden/units_python.txt");

  std::set<std::pair<std::string, unsigned>> python_sites;
  std::istringstream lines(python);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos || line[start] == 'l') continue;  // header
    const std::size_t colon1 = line.find(':', start);
    const std::size_t colon2 = line.find(':', colon1 + 1);
    ASSERT_NE(colon2, std::string::npos) << line;
    python_sites.emplace(
        line.substr(start, colon1 - start),
        static_cast<unsigned>(
            std::stoul(line.substr(colon1 + 1, colon2 - colon1 - 1))));
  }
  ASSERT_GE(python_sites.size(), 10u) << "python golden went empty";

  const cpm_lint::RunResult result = run_family("units");
  std::set<std::pair<std::string, unsigned>> lint_sites;
  for (const auto& f : result.findings) lint_sites.emplace(f.rel_path, f.line);
  for (const auto& f : result.suppressed)
    lint_sites.emplace(f.rel_path, f.line);

  for (const auto& site : python_sites) {
    EXPECT_TRUE(lint_sites.count(site))
        << "python linter caught " << site.first << ":" << site.second
        << " but cpm_lint --check=units did not";
  }
  // And the fixture tree proves the superset is strict: the reference
  // parameter at units_api.h:19 defeats the `double \w+` regex but not the
  // lexer.
  EXPECT_TRUE(lint_sites.count({"src/core/units_api.h", 19u}));
}

}  // namespace
