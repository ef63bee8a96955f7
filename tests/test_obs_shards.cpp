// Cross-process observability tests: the flight recorder ring, metrics
// registry wire form, shard serialize/parse round trips, the
// order-independent reducer, CheckShards semantics (including the
// SIGKILL flush-gap tolerance), and the end-to-end sim pipeline —
// traced elections whose merged shard file and merged Perfetto timeline
// are bit-identical per seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "celect/net/cluster.h"
#include "celect/obs/shard.h"
#include "celect/obs/trace_export.h"
#include "celect/proto/nosod/fault_tolerant.h"

namespace celect::obs {
namespace {

using net::ChaosEvent;
using net::ClusterConfig;
using net::ClusterResult;
using proto::nosod::MakeFaultTolerant;

TEST(FlightRecorderTest, KeepsNewestEventsWhenFull) {
  FlightRecorder rec(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.Note(i, static_cast<std::uint32_t>(i), FlightKind::kRetransmit, i);
  }
  EXPECT_EQ(rec.seen(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  auto snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest retained first: events 6..9.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].at, 6 + i);
    EXPECT_EQ(snap[i].a, 6 + i);
  }
}

TEST(FlightRecorderTest, PartialFillSnapshotsInOrder) {
  FlightRecorder rec(8);
  rec.Note(1, 2, FlightKind::kSessionStart, 42);
  rec.Note(5, 3, FlightKind::kSuspectBegin, 2);
  EXPECT_EQ(rec.dropped(), 0u);
  auto snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].kind, FlightKind::kSessionStart);
  EXPECT_EQ(snap[1].kind, FlightKind::kSuspectBegin);
}

TEST(MetricsRegistryTest, CompactRoundTrip) {
  MetricsRegistry m;
  m.AddCounter("net.delivered", 123);
  m.AddCounter("proto.f.broadcasters", 1);
  Histogram h;
  h.Add(3);
  h.Add(900);
  m.MergeHistogram("rtt_us", h);
  std::string wire = m.SerializeCompact();
  EXPECT_NE(wire.find("c:"), std::string::npos) << wire;
  EXPECT_NE(wire.find(" h:"), std::string::npos) << wire;
  auto back = MetricsRegistry::ParseCompact(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(MetricsRegistryTest, CompactFormRejectsMalformedLines) {
  const char* bad[] = {
      "x",                      // no section tag
      "c:",                     // empty item
      "c:=1",                   // empty name
      "c:a=1x",                 // trailing junk
      "c:a=9223372036854775808",  // int64 overflow
      "c:a=1,a=2",              // repeated name
      "h:h=1;1;1;1",            // missing bucket part
      "h:h=1;-1;1;1;0:1",       // signed histogram part
      "h:h=2;1;1;1;0:1",        // bucket total != count
      "h:rtt_us=1;9;9;9;0:1",   // min/max outside the only bucket
      "h:rtt_us=2;1;0;0;2",     // mean 0.5 > max 0
      "h:h=0;0;0;5;",           // empty histogram with a max
  };
  for (const char* line : bad) {
    EXPECT_FALSE(MetricsRegistry::ParseCompact(line).has_value()) << line;
  }
  auto neg = MetricsRegistry::ParseCompact("c:a=-3,b=+4");
  ASSERT_TRUE(neg.has_value());
  EXPECT_EQ(neg->counters().at("a"), -3);
  EXPECT_EQ(neg->SerializeCompact(), "c:a=-3,b=4");
}

TEST(MetricsRegistryTest, CounterExistsOnlyOnceRecorded) {
  MetricsRegistry m;
  const std::uint32_t peak = m.InternCounter("peak");
  EXPECT_TRUE(m.Empty());
  EXPECT_EQ(m.SerializeCompact(), "-");
  m.MaxCounter(peak, -5);  // the first record sets the value outright
  m.MaxCounter(peak, -9);
  m.AddCounter("zero", 0);
  EXPECT_EQ(m.counters(), (std::map<std::string, std::int64_t>{
                              {"peak", -5}, {"zero", 0}}));
  EXPECT_EQ(m.InternCounter("peak"), peak);
}

TEST(MetricsRegistryTest, EmptyRegistrySerializesToDash) {
  MetricsRegistry m;
  EXPECT_EQ(m.SerializeCompact(), "-");
  auto back = MetricsRegistry::ParseCompact("-");
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->Empty());
}

TEST(MetricsRegistryTest, MergeIsCommutative) {
  MetricsRegistry a, b;
  a.AddCounter("x", 1);
  Histogram ha;
  ha.Add(10);
  a.MergeHistogram("h", ha);
  b.AddCounter("x", 2);
  b.AddCounter("y", 5);
  Histogram hb;
  hb.Add(1000);
  b.MergeHistogram("h", hb);
  MetricsRegistry ab = a;
  ab.MergeFrom(b);
  MetricsRegistry ba = b;
  ba.MergeFrom(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.counters().at("x"), 3);
}

TraceShard SampleShard(std::uint32_t node, std::uint64_t epoch,
                       std::size_t records) {
  TraceShard s;
  s.node = node;
  s.epoch = epoch;
  s.complete = true;
  s.label = "id=" + std::to_string(1001 + node);
  for (std::size_t i = 0; i < records; ++i) {
    sim::TraceRecord r{};
    r.kind = sim::TraceRecord::Kind::kSend;
    r.at = sim::Time::FromTicks(static_cast<std::int64_t>(i) * 100);
    r.node = node;
    r.peer = node + 1;
    r.port = 1;
    r.type = 9;
    r.seq = i;
    r.clock = i + 1;
    r.mid = (std::uint64_t{epoch} << 20) + i + 1;
    s.records.push_back(r);
  }
  s.flight.push_back(FlightEvent{7, node + 1, FlightKind::kSessionStart,
                                 epoch, 0});
  s.metrics.AddCounter("net.delivered", records);
  return s;
}

TEST(TraceShardTest, SerializeParseRoundTrip) {
  TraceShard s = SampleShard(3, 77, 5);
  s.complete = false;
  s.dropped = 2;
  s.label = "id=1004 run=a b";  // label may contain spaces
  std::string text = SerializeShard(s);
  std::string error;
  auto parsed = ParseShards(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 1u);
  const TraceShard& p = (*parsed)[0];
  EXPECT_EQ(p.node, s.node);
  EXPECT_EQ(p.epoch, s.epoch);
  EXPECT_EQ(p.complete, s.complete);
  EXPECT_EQ(p.dropped, s.dropped);
  EXPECT_EQ(p.label, s.label);
  EXPECT_EQ(p.flight, s.flight);
  EXPECT_EQ(p.metrics, s.metrics);
  ASSERT_EQ(p.records.size(), s.records.size());
  EXPECT_EQ(SerializeShard(p), text);
}

TEST(TraceShardTest, ParseRejectsTruncatedShard) {
  std::string text = SerializeShard(SampleShard(0, 1, 3));
  // Drop the "#end shard" terminator: a half-written file must not
  // silently parse as a complete shard.
  text.resize(text.rfind("#end shard"));
  std::string error;
  EXPECT_FALSE(ParseShards(text, &error).has_value());
  EXPECT_NE(error.find("shard"), std::string::npos) << error;
}

TEST(TraceShardTest, ParseRejectsOutOfRangeFields) {
  // A uint32 field past its range must fail the parse, not wrap into a
  // different, valid-looking shard.
  const std::string text = SerializeShard(SampleShard(3, 1, 1));
  ASSERT_TRUE(ParseShards(text, nullptr).has_value());
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"#shard v1 node=3", "#shard v1 node=4294967299"},
           {"#flight at=7 peer=4", "#flight at=7 peer=4294967300"},
           {"send at=0 node=3", "send at=0 node=4294967299"}}) {
    std::string bad = text;
    ASSERT_NE(bad.find(from), std::string::npos) << from;
    bad.replace(bad.find(from), from.size(), to);
    std::string error;
    EXPECT_FALSE(ParseShards(bad, &error).has_value()) << to;
  }
}

TEST(ShardReducerTest, ArrivalOrderDoesNotChangeBytes) {
  std::vector<TraceShard> shards = {SampleShard(2, 20, 4),
                                    SampleShard(0, 10, 3),
                                    SampleShard(1, 15, 6)};
  ShardReducer forward;
  for (const auto& s : shards) forward.Add(s);
  ShardReducer reverse;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    reverse.Add(*it);
  }
  EXPECT_EQ(forward.SerializeMerged(), reverse.SerializeMerged());
  EXPECT_EQ(ExportMergedChromeTrace(forward.Merged()),
            ExportMergedChromeTrace(reverse.Merged()));
}

TEST(ShardReducerTest, DuplicateFlushesCollapseToTheFullest) {
  // The same incarnation flushed twice: mid-run (3 records, incomplete)
  // then at exit (5 records, complete). Only the fuller one survives.
  TraceShard early = SampleShard(4, 99, 3);
  early.complete = false;
  TraceShard late = SampleShard(4, 99, 5);
  ShardReducer r;
  r.Add(late);
  r.Add(early);
  ASSERT_EQ(r.Merged().size(), 1u);
  EXPECT_EQ(r.Merged()[0].records.size(), 5u);
  EXPECT_TRUE(r.Merged()[0].complete);
  EXPECT_EQ(r.added(), 2u);
}

TEST(CheckShardsTest, FlagsCorruptedMerges) {
  std::vector<TraceShard> shards = {SampleShard(0, 10, 3),
                                    SampleShard(1, 20, 3)};
  EXPECT_TRUE(CheckShards(shards).empty());

  // Two sends minting the same mid across different shards.
  auto dup = shards;
  dup[1].records[0].mid = dup[0].records[0].mid;
  EXPECT_FALSE(CheckShards(dup).empty());

  // A clocked record that fails to advance the shard's Lamport clock.
  auto stale = shards;
  stale[0].records[2].clock = stale[0].records[1].clock;
  EXPECT_FALSE(CheckShards(stale).empty());
}

TEST(CheckShardsTest, OrphanDeliveryNeedsAnIncompleteSender) {
  TraceShard sender = SampleShard(0, 10, 1);
  TraceShard receiver;
  receiver.node = 1;
  receiver.epoch = 20;
  receiver.complete = true;
  sim::TraceRecord d{};
  d.kind = sim::TraceRecord::Kind::kDeliver;
  d.at = sim::Time::FromTicks(500);
  d.node = 1;
  d.peer = 0;
  d.port = 1;
  d.type = 9;
  d.seq = 0;
  d.clock = 9;
  d.mid = 0xDEAD0001;  // no shard holds the matching send
  receiver.records.push_back(d);

  // Every shard complete: the orphan is a real coherence violation.
  std::vector<TraceShard> complete = {sender, receiver};
  EXPECT_FALSE(CheckShards(complete).empty());

  // The sending node left an incomplete shard (SIGKILLed before its
  // final flush): the unmatched tail is the legitimate gap.
  sender.complete = false;
  std::vector<TraceShard> gap = {sender, receiver};
  EXPECT_TRUE(CheckShards(gap).empty());
}

ClusterConfig TracedConfig() {
  ClusterConfig config;
  config.n = 6;
  config.seed = 11;
  config.link.loss = 0.05;
  config.trace = true;
  return config;
}

TEST(TracedElectionTest, ShardsMergeCleanAndBitIdenticalPerSeed) {
  ClusterConfig config = TracedConfig();
  ClusterResult first = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(first.agreed);
  ASSERT_EQ(first.shards.size(), config.n);

  ShardReducer forward;
  for (const auto& s : first.shards) forward.Add(s);
  auto problems = CheckShards(forward.Merged());
  for (const auto& p : problems) ADD_FAILURE() << p;

  // Rerun: the merged shard file and the merged Perfetto timeline are
  // pure functions of the seed.
  ClusterResult second = RunSimElection(config, MakeFaultTolerant(1));
  ShardReducer rerun;
  // Feed in reverse arrival order for good measure.
  for (auto it = second.shards.rbegin(); it != second.shards.rend(); ++it) {
    rerun.Add(*it);
  }
  EXPECT_EQ(forward.SerializeMerged(), rerun.SerializeMerged());
  EXPECT_EQ(ExportMergedChromeTrace(forward.Merged()),
            ExportMergedChromeTrace(rerun.Merged()));
}

TEST(TracedElectionTest, KillMidElectionRecoversTheVictimsShard) {
  ClusterConfig config = TracedConfig();
  config.n = 8;
  config.seed = 5;
  // Early kill + quick revival, so the revived incarnation is certain
  // to exist before the election can settle.
  config.chaos = {
      {5'000, 2, ChaosEvent::What::kKill},
      {20'000, 2, ChaosEvent::What::kRestart},
  };
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(2));
  ASSERT_TRUE(result.agreed);
  // n surviving incarnations plus the killed one's dying flush.
  ASSERT_EQ(result.shards.size(), config.n + 1);

  // The victim's shard is incomplete and a second incarnation of the
  // same node exists under a different epoch.
  std::size_t node2 = 0, incomplete = 0;
  for (const auto& s : result.shards) {
    if (s.node == 2) ++node2;
    if (!s.complete) ++incomplete;
  }
  EXPECT_EQ(node2, 2u);
  EXPECT_EQ(incomplete, 1u);

  ShardReducer reducer;
  for (const auto& s : result.shards) reducer.Add(s);
  EXPECT_EQ(reducer.Merged().size(), config.n + 1);
  auto problems = CheckShards(reducer.Merged());
  for (const auto& p : problems) ADD_FAILURE() << p;
}

TEST(TracedElectionTest, TraceOffMintsNoShardsButStillAgrees) {
  ClusterConfig config = TracedConfig();
  config.trace = false;
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(result.agreed);
  EXPECT_TRUE(result.shards.empty());
}

TEST(TracedElectionTest, SessionHistogramsReachTheClusterResult) {
  ClusterConfig config = TracedConfig();
  config.link.loss = 0.15;
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(result.agreed);
  const auto& h = result.metrics.histograms();
  ASSERT_EQ(h.count("rtt_us"), 1u);
  ASSERT_EQ(h.count("window_occupancy"), 1u);
  EXPECT_EQ(h.count("backoff_us"), 1u) << "15% loss must retransmit";
}

}  // namespace
}  // namespace celect::obs
