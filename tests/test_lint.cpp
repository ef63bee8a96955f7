// celect_lint self-test: every rule family fires exactly on its
// fixture line (tests/lint_fixtures mirrors the celect/ layout with
// one deliberately-bad snippet per rule), and the real src/ tree is
// clean. CELECT_LINT_FIXTURES / CELECT_SRC_ROOT are absolute paths
// injected by tests/CMakeLists.txt.
#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint/lint.h"

namespace celect::lint {
namespace {

// "file:line rule severity" — enough to pin a finding to a fixture
// line without coupling the test to message wording.
std::vector<std::string> Keys(const LintResult& r) {
  std::vector<std::string> out;
  out.reserve(r.findings.size());
  for (const Finding& f : r.findings) {
    out.push_back(f.file + ":" + std::to_string(f.line) + " " + f.rule +
                  " " + f.severity);
  }
  return out;
}

TEST(LintFixtures, EveryRuleFiresExactlyOnItsFixtureLine) {
  LintResult r = LintTree(CELECT_LINT_FIXTURES);
  EXPECT_EQ(r.files_scanned, 13u);
  const std::vector<std::string> expected = {
      "celect/proto/bad_engine.cpp:7 proto-observe error",
      "celect/proto/bad_engine.cpp:7 proto-phase-spans error",
      "celect/proto/bad_engine.h:11 proto-packet-arms error",
      "celect/proto/bad_engine.h:12 proto-packet-arms error",
      "celect/proto/forwarding_engine.cpp:6 proto-phase-spans error",
      "celect/proto/silent_engine.h:7 proto-observe error",
      "celect/proto/silent_engine.h:7 proto-phase-spans error",
      "celect/sim/bad_layering.cpp:2 layering error",
      "celect/sim/bad_pointer_key.cpp:13 no-pointer-keys error",
      "celect/sim/bad_pointer_key.cpp:14 no-pointer-keys error",
      "celect/sim/bad_rng.cpp:9 no-unseeded-rng error",
      "celect/sim/bad_rng.cpp:10 no-unseeded-rng error",
      "celect/sim/bad_rng.cpp:11 no-unseeded-rng error",
      "celect/sim/bad_suppression.cpp:9 bad-suppression error",
      "celect/sim/bad_suppression.cpp:11 bad-suppression error",
      "celect/sim/bad_suppression.cpp:12 bad-suppression error",
      "celect/sim/bad_suppression.cpp:13 unused-suppression warning",
      "celect/sim/bad_unordered.cpp:12 no-unordered-iteration error",
      "celect/sim/bad_unordered.cpp:13 no-unordered-iteration error",
      "celect/sim/bad_wallclock.cpp:8 no-wall-clock error",
      "celect/sim/bad_wallclock.cpp:9 no-wall-clock error",
      "celect/sim/metrics.h:9 metrics-surfaced error",
  };
  EXPECT_EQ(Keys(r), expected);
  EXPECT_TRUE(r.HasErrors());
  EXPECT_EQ(r.ErrorCount(), 21u);
  EXPECT_EQ(r.WarningCount(), 1u);
}

// The justified suppression in bad_suppression.cpp (line 7) and the
// justification-free-but-parseable one (line 9) both silence the
// steady_clock read on the following line: no no-wall-clock finding
// may escape that file.
TEST(LintFixtures, JustifiedSuppressionSilencesTheNextLine) {
  LintResult r = LintTree(CELECT_LINT_FIXTURES);
  for (const Finding& f : r.findings) {
    if (f.file == "celect/sim/bad_suppression.cpp") {
      EXPECT_NE(f.rule, "no-wall-clock") << FormatFinding(f);
    }
  }
}

// The negative halves of the contract rules: kPing (handler + send
// site), live_counter() (consumed by the harness emitter) and
// LoudEngine (both hooks, one of them out of line) must NOT be
// reported.
TEST(LintFixtures, SatisfiedContractsStayQuiet) {
  LintResult r = LintTree(CELECT_LINT_FIXTURES);
  for (const Finding& f : r.findings) {
    EXPECT_EQ(f.message.find("kPing"), std::string::npos)
        << FormatFinding(f);
    EXPECT_EQ(f.message.find("live_counter"), std::string::npos)
        << FormatFinding(f);
    EXPECT_EQ(f.message.find("LoudEngine"), std::string::npos)
        << FormatFinding(f);
  }
}

// The acceptance gate CI enforces: the real source tree carries zero
// unsuppressed findings, errors and warnings alike.
TEST(LintRealTree, SrcIsClean) {
  LintResult r = LintTree(CELECT_SRC_ROOT);
  EXPECT_GT(r.files_scanned, 100u);
  for (const Finding& f : r.findings) {
    ADD_FAILURE() << FormatFinding(f);
  }
}

TEST(LintOutput, FormatFindingIsFileLineSeverityRuleMessage) {
  Finding f{"celect/sim/x.cpp", 12, "no-wall-clock", "error", "boom"};
  EXPECT_EQ(FormatFinding(f),
            "celect/sim/x.cpp:12: error: [no-wall-clock] boom");
}

TEST(LintOutput, JsonCarriesCountsAndEscapes) {
  LintResult r;
  r.files_scanned = 3;
  r.findings.push_back(
      {"a.cpp", 1, "layering", "error", "a \"quoted\" message"});
  r.findings.push_back({"b.cpp", 2, "no-wall-clock", "warning", "w"});
  std::string json = FindingsJson(r);
  EXPECT_NE(json.find("\"files_scanned\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"warnings\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("a \\\"quoted\\\" message"), std::string::npos)
      << json;
}

TEST(LintOutput, EmptyResultJsonIsWellFormed) {
  LintResult r;
  EXPECT_EQ(FindingsJson(r),
            "{\n  \"files_scanned\": 0,\n  \"errors\": 0,\n"
            "  \"warnings\": 0,\n  \"findings\": []\n}\n");
}

TEST(LintRules, EveryFamilyIsRegistered) {
  const std::vector<std::string>& ids = RuleIds();
  for (const char* id :
       {"no-wall-clock", "no-unseeded-rng", "no-unordered-iteration",
        "no-pointer-keys", "proto-observe", "proto-phase-spans",
        "proto-packet-arms", "metrics-surfaced", "layering",
        "bad-suppression", "unused-suppression"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
}

TEST(LintRules, MissingRootReportsInsteadOfCrashing) {
  LintResult r = LintTree("/nonexistent/celect/lint/root");
  EXPECT_EQ(r.files_scanned, 0u);
}

}  // namespace
}  // namespace celect::lint
