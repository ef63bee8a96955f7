// The supervisor's report-pipe parser (net/report.h): every field is
// required and range-checked, and seeded mutation fuzzing shows that
// mutated or truncated lines never crash the parser and that every
// accepted line is exactly what FormatReport writes for the result.
// Deterministic (seeded) so failures reproduce.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "celect/net/report.h"
#include "celect/util/rng.h"
#include "test_util.h"

namespace celect::net {
namespace {

constexpr std::uint32_t kNodes = 16;

TEST(ReportLine, DeclarationWithoutLeaderIsRejected) {
  // An older supervisor accepted "D 3" and recorded a phantom leader 0.
  EXPECT_FALSE(ParseReport("D 3", kNodes).has_value());
  EXPECT_FALSE(ParseReport("B 3", kNodes).has_value());
  EXPECT_FALSE(ParseReport("M 3", kNodes).has_value());
  const auto d = ParseReport("D 3 1022", kNodes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, Report::Kind::kDeclared);
  EXPECT_EQ(d->node, 3u);
  EXPECT_EQ(d->leader, 1022);
}

TEST(ReportLine, EveryFieldIsCheckedAndNothingTrails) {
  for (const char* bad :
       {"", "D", "D ", "D  3 7", "D 3  7", "D 3 7 ", "D 3 7\r", "D 3 7x",
        "D 3 +7", "D +3 7", "D -3 7", "D 3 7 8", "X 3 7", "d 3 7",
        "E 3 7", "E 3 ", "E", "D 16 7", "D 4294967296 7",
        "D 3 9223372036854775808", "D 3 0x10", "D 03 7", "D 3 -0",
        "M 3 ", "M 3 junk", "M 3 -\n", "M 3 c:a=1\n", "M 3 c:a=1  h:",
        "M 3 c:b=1,a=2", "M 3 c:a=+1"}) {
    EXPECT_FALSE(ParseReport(bad, kNodes).has_value()) << '"' << bad << '"';
  }
  const auto e = ParseReport("E 15", kNodes);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, Report::Kind::kBindFailed);
  EXPECT_EQ(e->node, 15u);
  const auto m = ParseReport("M 0 -", kNodes);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->kind, Report::Kind::kMetrics);
  EXPECT_EQ(m->metrics, obs::MetricsRegistry{});
  const auto low = ParseReport("B 2 -9223372036854775808", kNodes);
  ASSERT_TRUE(low.has_value());
  EXPECT_EQ(low->leader, std::numeric_limits<sim::Id>::min());
}

std::vector<Report> BaseReports() {
  obs::MetricsRegistry metrics;
  metrics.AddCounter("net.session.retransmits", 12);
  metrics.AddCounter("proto.ft.rounds", 3);
  std::vector<Report> out;
  out.push_back({.kind = Report::Kind::kBelief, .node = 4, .leader = 1078});
  out.push_back({.kind = Report::Kind::kDeclared, .node = 11, .leader = 1106});
  out.push_back({.kind = Report::Kind::kBindFailed, .node = 9});
  out.push_back(
      {.kind = Report::Kind::kMetrics, .node = 7, .metrics = metrics});
  return out;
}

TEST(ReportLine, FormattedReportsRoundTrip) {
  for (const Report& r : BaseReports()) {
    const auto parsed = ParseReport(FormatReport(r), kNodes);
    ASSERT_TRUE(parsed.has_value()) << FormatReport(r);
    EXPECT_EQ(*parsed, r) << FormatReport(r);
  }
}

TEST(ReportLineFuzz, MutatedLinesParseInRangeOrNotAtAll) {
  const std::vector<Report> base = BaseReports();
  Rng rng(3131);
  int accepted = 0;
  for (int trial = 0; trial < 8000; ++trial) {
    std::string line = FormatReport(base[rng.NextBelow(base.size())]);
    for (std::size_t edits = 1 + rng.NextBelow(3); edits > 0; --edits) {
      test::MutateText(rng, line, "0123456789 -+BDEM,:;=ch.\n");
    }
    const auto parsed = ParseReport(line, kNodes);
    if (!parsed) continue;
    ++accepted;
    EXPECT_LT(parsed->node, kNodes) << line;
    EXPECT_EQ(FormatReport(*parsed), line) << "trial " << trial;
    const auto reparsed = ParseReport(line, kNodes);
    ASSERT_TRUE(reparsed.has_value()) << line;
    EXPECT_EQ(*reparsed, *parsed) << "trial " << trial << ": " << line;
  }
  // Edits that only change a digit stay valid; without them the
  // round-trip checks exercised nothing.
  EXPECT_GT(accepted, 500);
}

}  // namespace
}  // namespace celect::net
