// Seeded mutation fuzzing of MetricsRegistry::ParseCompact, the parser
// a supervisor runs over whatever a dying child wrote down its pipe:
// random registries round-trip exactly, and mutated or truncated lines
// never crash, never yield a contradictory histogram, and re-serialize
// to a line that parses back equal. Deterministic (seeded) so failures
// reproduce.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "celect/obs/telemetry.h"
#include "celect/util/rng.h"

namespace celect::obs {
namespace {

std::string RandomName(Rng& rng) {
  static constexpr char kChars[] = "abcdefghijklmnopqrstuvwxyz._0123456789";
  std::string name(1 + rng.NextBelow(12), 'a');
  for (char& c : name) c = kChars[rng.NextBelow(sizeof(kChars) - 1)];
  return name;
}

std::int64_t RandomCounter(Rng& rng) {
  switch (rng.NextBelow(5)) {
    case 0: return static_cast<std::int64_t>(rng.NextBelow(256));
    case 1: return -static_cast<std::int64_t>(rng.NextBelow(256));
    case 2: return std::numeric_limits<std::int64_t>::min();
    case 3: return std::numeric_limits<std::int64_t>::max();
    default: return static_cast<std::int64_t>(rng.Next());
  }
}

MetricsRegistry RandomRegistry(Rng& rng) {
  MetricsRegistry m;
  for (std::size_t i = rng.NextBelow(6); i > 0; --i) {
    m.AddCounter(RandomName(rng), RandomCounter(rng));
  }
  for (std::size_t i = rng.NextBelow(4); i > 0; --i) {
    Histogram h;
    // At most 16 samples below 2^56: the exact sum cannot wrap.
    for (std::size_t s = 1 + rng.NextBelow(16); s > 0; --s) {
      h.Add(rng.NextBelow(2) == 0 ? rng.NextBelow(1000)
                                  : rng.Next() >> (8 + rng.NextBelow(56)));
    }
    m.MergeHistogram(RandomName(rng), h);
  }
  return m;
}

// One random edit: overwrite, insert or delete a byte, or truncate.
// Overwrites favour the format's own punctuation and digits.
void Mutate(Rng& rng, std::string& line) {
  static constexpr char kBytes[] = "0123456789-+;:,= ch\t9";
  const auto pick = [&]() -> char {
    return rng.NextBelow(4) == 0
               ? static_cast<char>(rng.NextBelow(256))
               : kBytes[rng.NextBelow(sizeof(kBytes) - 1)];
  };
  const std::size_t at = rng.NextBelow(line.size() + 1);
  switch (rng.NextBelow(4)) {
    case 0:
      if (at < line.size()) line[at] = pick();
      break;
    case 1: line.insert(line.begin() + static_cast<std::ptrdiff_t>(at),
                        pick());
      break;
    case 2:
      if (at < line.size()) line.erase(at, 1);
      break;
    default: line.resize(at); break;
  }
}

// What every parsed histogram must satisfy, whatever the input was.
void ExpectCoherent(const std::string& name, const Histogram& h,
                    const std::string& line) {
  ASSERT_GT(h.count(), 0u) << line;  // empty ones are never stored
  const std::uint64_t p50 = h.ApproxQuantile(0.5);
  const std::uint64_t p90 = h.ApproxQuantile(0.9);
  const std::uint64_t p99 = h.ApproxQuantile(0.99);
  EXPECT_LE(h.min(), p50) << name << " in " << line;
  EXPECT_LE(p50, p90) << name << " in " << line;
  EXPECT_LE(p90, p99) << name << " in " << line;
  EXPECT_LE(p99, h.max()) << name << " in " << line;
  // min <= sum / count <= max, exactly (integer division both ways).
  const std::uint64_t floor = h.sum() / h.count();
  const std::uint64_t ceil = floor + (h.sum() % h.count() != 0);
  EXPECT_LE(h.min(), floor) << name << " in " << line;
  EXPECT_LE(ceil, h.max()) << name << " in " << line;
}

TEST(MetricsRegistryFuzz, RandomRegistriesRoundTrip) {
  Rng rng(2027);
  for (int trial = 0; trial < 3000; ++trial) {
    const MetricsRegistry m = RandomRegistry(rng);
    const std::string line = m.SerializeCompact();
    const auto back = MetricsRegistry::ParseCompact(line);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(*back, m) << line;
    EXPECT_EQ(back->SerializeCompact(), line);
  }
}

TEST(MetricsRegistryFuzz, MutatedLinesParseCoherentlyOrNotAtAll) {
  Rng rng(4242);
  int accepted = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string line = RandomRegistry(rng).SerializeCompact();
    for (std::size_t edits = 1 + rng.NextBelow(3); edits > 0; --edits) {
      Mutate(rng, line);
    }
    const auto parsed = MetricsRegistry::ParseCompact(line);
    if (!parsed) continue;
    ++accepted;
    for (const auto& [name, h] : parsed->histograms()) {
      ExpectCoherent(name, h, line);
    }
    const std::string again = parsed->SerializeCompact();
    const auto reparsed = MetricsRegistry::ParseCompact(again);
    ASSERT_TRUE(reparsed.has_value()) << line << " -> " << again;
    EXPECT_EQ(*reparsed, *parsed) << line << " -> " << again;
  }
  // The mutations must leave some lines valid, or the checks above
  // exercised nothing.
  EXPECT_GT(accepted, 1000);
}

}  // namespace
}  // namespace celect::obs
