// Seeded mutation fuzzing of the trace text formats a dying process
// leaves behind — ParseShards over shard files and ParseRecords over
// compact traces — and of CheckShards over whatever they accept. The
// base input is a real traced SimNet election (n=4, FT(1), one peer
// killed mid-run), so mutations land on realistic headers, metrics,
// flight and record lines. Mutated or truncated inputs never crash,
// every accepted input re-serializes to bytes that parse back equal,
// and the checker runs on every accepted shard set. Deterministic
// (seeded) so failures reproduce.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "celect/net/cluster.h"
#include "celect/obs/shard.h"
#include "celect/obs/trace_inspect.h"
#include "celect/proto/nosod/fault_tolerant.h"
#include "celect/util/rng.h"
#include "test_util.h"

namespace celect::obs {
namespace {

const ShardReducer& BaseMerge() {
  static const ShardReducer merged = [] {
    net::ClusterConfig config;
    config.n = 4;
    config.seed = 3;
    config.link.loss = 0.05;
    config.trace = true;
    config.chaos = {{5'000, 2, net::ChaosEvent::What::kKill}};
    ShardReducer reducer;
    for (auto& s :
         net::RunSimElection(config, proto::nosod::MakeFaultTolerant(1))
             .shards) {
      reducer.Add(std::move(s));
    }
    return reducer;
  }();
  return merged;
}

std::string SerializeAll(const std::vector<TraceShard>& shards) {
  std::string out;
  for (const TraceShard& s : shards) out += SerializeShard(s);
  return out;
}

// Overwrites favour the formats' own punctuation, digits and keys.
void Mutate(Rng& rng, std::string& text) {
  test::MutateText(rng, text, "0123456789-+=.: \n#abcdeklmnoprst");
}

TEST(TraceShardFuzz, BaseMergeIsCoherentAndRoundTrips) {
  const ShardReducer& base = BaseMerge();
  ASSERT_EQ(base.Merged().size(), 4u);  // three survivors + the victim
  EXPECT_TRUE(CheckShards(base.Merged()).empty());
  EXPECT_FALSE(base.Merged()[2].complete);  // the victim's dying flush
  std::string error;
  const auto parsed = ParseShards(base.SerializeMerged(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, base.Merged());
}

TEST(TraceShardFuzz, MutatedShardFilesParseAndCheckOrNotAtAll) {
  const std::string base = BaseMerge().SerializeMerged();
  Rng rng(1515);
  int accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = base;
    for (std::size_t edits = 1 + rng.NextBelow(3); edits > 0; --edits) {
      Mutate(rng, text);
    }
    std::string error;
    const auto parsed = ParseShards(text, &error);
    if (!parsed) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    ++accepted;
    CheckShards(*parsed);  // any verdict, but no crash
    ShardCheckOptions no_fifo;
    no_fifo.expect_fifo = false;
    CheckShards(*parsed, no_fifo);
    const std::string again = SerializeAll(*parsed);
    const auto reparsed = ParseShards(again, &error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    EXPECT_EQ(*reparsed, *parsed) << "trial " << trial;
  }
  // Some edits only change a digit or a label and stay valid (about
  // 6% here); without them the round-trip checks exercised nothing.
  EXPECT_GT(accepted, 100);
}

TEST(TraceShardFuzz, MutatedCompactTracesParseAndCheckOrNotAtAll) {
  std::vector<sim::TraceRecord> records;
  for (const TraceShard& s : BaseMerge().Merged()) {
    records.insert(records.end(), s.records.begin(), s.records.end());
  }
  const std::string base = SerializeRecords(records);
  Rng rng(2929);
  int accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = base;
    for (std::size_t edits = 1 + rng.NextBelow(3); edits > 0; --edits) {
      Mutate(rng, text);
    }
    std::string error;
    const auto parsed = ParseRecords(text, &error);
    if (!parsed) {
      EXPECT_NE(error.find("line "), std::string::npos) << error;
      continue;
    }
    ++accepted;
    CheckShards(ShardsFromRecords(*parsed));  // any verdict, but no crash
    const std::string again = SerializeRecords(*parsed);
    const auto reparsed = ParseRecords(again, &error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    EXPECT_EQ(*reparsed, *parsed) << "trial " << trial;
  }
  EXPECT_GT(accepted, 100);
}

}  // namespace
}  // namespace celect::obs
