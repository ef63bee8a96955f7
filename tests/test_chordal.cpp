// Chordal-ring structure and coordinator election ([ALSZ89] extension).
#include <gtest/gtest.h>

#include <cmath>

#include "celect/proto/chordal/coordinator.h"
#include "celect/sim/runtime.h"
#include "celect/topo/chordal_ring.h"
#include "test_util.h"

namespace celect {
namespace {

using harness::DelayKind;
using harness::MapperKind;
using harness::RunOptions;
using harness::WakeupKind;
using test::RunAndCheck;

TEST(ChordalRing, ChordSetIsPowersOfTwo) {
  topo::ChordalRing ring(16);
  EXPECT_EQ(ring.chords_per_node(), 4u);
  EXPECT_EQ(ring.chord_distances(),
            (std::vector<std::uint32_t>{1, 2, 4, 8}));
}

TEST(ChordalRing, ChordMembershipIncludesReverseLabels) {
  topo::ChordalRing ring(16);
  for (std::uint32_t d : {1u, 2u, 4u, 8u}) {
    EXPECT_TRUE(ring.IsChordDistance(d)) << d;
    EXPECT_TRUE(ring.IsChordDistance(16 - d)) << 16 - d;  // reverse
  }
  EXPECT_FALSE(ring.IsChordDistance(5));
  EXPECT_FALSE(ring.IsChordDistance(6));
  EXPECT_FALSE(ring.IsChordDistance(13));
}

TEST(ChordalRing, RoutingDecomposition) {
  topo::ChordalRing ring(64);
  EXPECT_EQ(ring.FirstHop(1), 1u);
  EXPECT_EQ(ring.FirstHop(37), 32u);
  EXPECT_EQ(ring.FirstHop(63), 32u);
  EXPECT_EQ(ring.HopCount(37), 3u);  // 32 + 4 + 1
  EXPECT_EQ(ring.HopCount(63), 6u);
  EXPECT_EQ(ring.HopCount(0), 0u);
}

TEST(ChordalRing, ForwardDistanceWraps) {
  topo::ChordalRing ring(8);
  EXPECT_EQ(ring.ForwardDistance(2, 5), 3u);
  EXPECT_EQ(ring.ForwardDistance(5, 2), 5u);
  EXPECT_EQ(ring.ForwardDistance(3, 3), 0u);
}

RunOptions ChordalOptions(std::uint32_t n) {
  RunOptions o;
  o.n = n;
  o.mapper = MapperKind::kSenseOfDirection;  // ports = ring distances
  return o;
}

TEST(ChordalCoordinator, ElectsUniqueLeaderAcrossSizes) {
  for (std::uint32_t n : {2u, 4u, 8u, 16u, 64u, 256u}) {
    auto o = ChordalOptions(n);
    RunAndCheck(proto::chordal::MakeChordalCoordinator(), o);
  }
}

TEST(ChordalCoordinator, LeaderIsMaxBaseIdWhenAllWakeTogether) {
  auto o = ChordalOptions(64);
  auto r = RunAndCheck(proto::chordal::MakeChordalCoordinator(), o);
  EXPECT_EQ(r.leader_id, sim::Id{64});
}

TEST(ChordalCoordinator, SingleBaseNodeWinsFromAnyPosition) {
  for (sim::NodeId base : {0u, 1u, 7u, 15u}) {
    harness::RunOptions o = ChordalOptions(16);
    auto config = harness::BuildNetwork(o);
    config.wakeup.wakeups = {{base, sim::Time::Zero()}};
    sim::Runtime rt(std::move(config),
                    proto::chordal::MakeChordalCoordinator());
    auto r = rt.Run();
    EXPECT_EQ(r.leader_declarations, 1u) << "base=" << base;
    EXPECT_EQ(r.leader_id, sim::Id{base + 1});
  }
}

TEST(ChordalCoordinator, MessagesAreLinear) {
  for (std::uint32_t n : {64u, 256u, 1024u}) {
    auto o = ChordalOptions(n);
    auto r = RunAndCheck(proto::chordal::MakeChordalCoordinator(), o);
    // N-1 queries + N-1 reports + starts/announce routing. All N nodes
    // are base here, so starts add up to r·logN; still within ~2N+NlogN…
    // with a single base node the total is tightly 2N + O(log N):
    EXPECT_GE(r.total_messages, 2u * (n - 1));
  }
  // Tight bound with one base node.
  auto o = ChordalOptions(512);
  o.wakeup = WakeupKind::kSingle;
  auto r = RunAndCheck(proto::chordal::MakeChordalCoordinator(), o);
  EXPECT_LE(r.total_messages, 2u * 512u + 32u);
}

TEST(ChordalCoordinator, TimeIsLogarithmic) {
  for (std::uint32_t n : {64u, 256u, 1024u}) {
    auto o = ChordalOptions(n);
    auto r = RunAndCheck(proto::chordal::MakeChordalCoordinator(), o);
    double log_n = std::log2(static_cast<double>(n));
    EXPECT_LE(r.leader_time.ToDouble(), 4.0 * log_n + 4) << "n=" << n;
  }
}

TEST(ChordalCoordinator, OnlyChordPortsAreUsed) {
  auto o = ChordalOptions(64);
  auto config = harness::BuildNetwork(o);
  sim::RuntimeOptions rt_opts;
  rt_opts.enable_trace = true;
  sim::Runtime rt(std::move(config),
                  proto::chordal::MakeChordalCoordinator(), rt_opts);
  rt.Run();
  topo::ChordalRing ring(64);
  for (const auto& rec : rt.trace().records()) {
    if (rec.kind != sim::TraceRecord::Kind::kSend) continue;
    EXPECT_TRUE(ring.IsChordDistance(rec.port))
        << "non-chord edge used: distance " << rec.port;
  }
}

TEST(ChordalCoordinator, RandomisedSubsetsAndDelays) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto o = ChordalOptions(32);
    o.seed = seed;
    o.delay = seed % 2 ? DelayKind::kRandom : DelayKind::kUnit;
    o.wakeup = WakeupKind::kRandomSubset;
    o.wakeup_count = 1 + static_cast<std::uint32_t>(seed % 31);
    o.wakeup_window = 2.0;
    o.identity = harness::IdentityKind::kRandomPermutation;
    RunAndCheck(proto::chordal::MakeChordalCoordinator(), o);
  }
}

TEST(ChordalCoordinator, StaggeredWakeupStillUnique) {
  auto o = ChordalOptions(64);
  o.wakeup = WakeupKind::kStaggeredChain;
  o.stagger_spacing = 0.9;
  RunAndCheck(proto::chordal::MakeChordalCoordinator(), o);
}

}  // namespace
}  // namespace celect
