// Ladder queue vs reference heap: bit-identical simulation.
//
// The ladder rework (event_queue.{h,cpp}) is only allowed to change how
// fast events come out, never which events or in what order. These tests
// run the same elections twice — RunOptions::reference_queue selecting
// the seed binary heap vs the ladder — and require FingerprintResult to
// match exactly, across the E7-style protocol grid, the chaos harness
// (faults, cancelled timers, duplicates), and sweep thread counts.
//
// An opt-in large configuration (CELECT_LARGE_TESTS=1 in the
// environment) runs the million-node smoke elections from the ladder's
// acceptance bar; they need a few GB of RAM and ~1 minute.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "celect/harness/chaos.h"
#include "celect/harness/experiment.h"
#include "celect/proto/nosod/fault_tolerant.h"
#include "celect/proto/nosod/protocol_d.h"
#include "celect/proto/nosod/protocol_e.h"
#include "celect/proto/nosod/protocol_f.h"
#include "celect/proto/nosod/protocol_g.h"
#include "celect/proto/sod/protocol_a.h"
#include "celect/proto/sod/protocol_a_prime.h"
#include "celect/proto/sod/protocol_b.h"
#include "celect/proto/sod/protocol_c.h"

namespace celect {
namespace {

using harness::DelayKind;
using harness::FingerprintResult;
using harness::MapperKind;
using harness::RunOptions;
using harness::WakeupKind;

struct GridProtocol {
  const char* name;
  sim::ProcessFactory factory;
  bool sod;
  bool pow2_only;
};

std::vector<GridProtocol> GridProtocols() {
  std::vector<GridProtocol> out;
  out.push_back({"A", proto::sod::MakeProtocolA(), true, false});
  out.push_back({"A'", proto::sod::MakeProtocolAPrime(), true, false});
  out.push_back({"B", proto::sod::MakeProtocolB(), true, true});
  out.push_back({"C", proto::sod::MakeProtocolC(), true, true});
  out.push_back({"D", proto::nosod::MakeProtocolD(), false, false});
  out.push_back({"E", proto::nosod::MakeProtocolE(), false, false});
  out.push_back({"F(3)", proto::nosod::MakeProtocolF(3), false, false});
  out.push_back({"G(3)", proto::nosod::MakeProtocolG(3), false, false});
  out.push_back({"FT(1)", proto::nosod::MakeFaultTolerant(1), false, false});
  return out;
}

// Runs `options` on both queues and asserts identical fingerprints.
void ExpectQueueEquivalence(const GridProtocol& p, RunOptions options,
                            const std::string& label) {
  options.reference_queue = false;
  const std::uint64_t ladder =
      FingerprintResult(harness::RunElection(p.factory, options));
  options.reference_queue = true;
  const std::uint64_t heap =
      FingerprintResult(harness::RunElection(p.factory, options));
  EXPECT_EQ(ladder, heap) << p.name << " " << label;
}

TEST(QueueEquivalence, ProtocolGridMatchesReferenceHeap) {
  for (const auto& p : GridProtocols()) {
    for (std::uint32_t n : {std::uint32_t{16}, std::uint32_t{64}}) {
      if (p.pow2_only && (n & (n - 1)) != 0) continue;
      for (DelayKind delay :
           {DelayKind::kUnit, DelayKind::kRandom, DelayKind::kEager}) {
        RunOptions o;
        o.n = n;
        o.seed = 3;
        o.mapper = p.sod ? MapperKind::kSenseOfDirection
                         : MapperKind::kRandom;
        o.delay = delay;
        o.identity = harness::IdentityKind::kRandomPermutation;
        ExpectQueueEquivalence(
            p, o, "n=" + std::to_string(n) + " delay=" +
                      std::to_string(static_cast<int>(delay)));
      }
    }
  }
}

TEST(QueueEquivalence, StaggeredWakeupsAndSerializedPackets) {
  for (const auto& p : GridProtocols()) {
    RunOptions o;
    o.n = 32;
    o.seed = 11;
    o.mapper = p.sod ? MapperKind::kSenseOfDirection : MapperKind::kRandom;
    o.delay = DelayKind::kRandom;
    o.wakeup = WakeupKind::kStaggeredChain;
    o.serialize_packets = true;
    ExpectQueueEquivalence(p, o, "staggered+serialized");
  }
}

// Under unit delays a whole wave of protocol D lands on one instant: at
// N = 128 one bucket holds over 10^4 handles (about 1,000 chunks), served
// while the next wave is pushed into chunks the pops hand back.
TEST(QueueEquivalence, ProtocolDUnitDelayWavesSpanManyChunks) {
  const GridProtocol d{"D", proto::nosod::MakeProtocolD(), false, false};
  RunOptions o;
  o.n = 128;
  o.seed = 5;
  o.mapper = MapperKind::kRandom;
  o.delay = DelayKind::kUnit;
  o.identity = harness::IdentityKind::kRandomPermutation;
  ExpectQueueEquivalence(d, o, "n=128 unit delays");
}

// Chaos runs exercise exactly what the grid above can't: cancelled
// timers popping as tombstones, crash-cleared timer sets, duplicated
// and reordered deliveries.
TEST(QueueEquivalence, ChaosCasesMatchReferenceHeap) {
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    harness::ChaosOptions co;
    co.n = 16;
    co.max_crashes = 1;
    co.loss = 0.05;
    co.duplicate = 0.05;
    co.reorder = 0.05;
    co.reference_queue = false;
    auto ladder =
        RunChaosCase(proto::nosod::MakeFaultTolerant(1), seed, co);
    co.reference_queue = true;
    auto heap = RunChaosCase(proto::nosod::MakeFaultTolerant(1), seed, co);
    EXPECT_EQ(FingerprintResult(ladder.result),
              FingerprintResult(heap.result))
        << "chaos seed " << seed;
    EXPECT_EQ(ladder.violation, heap.violation) << "chaos seed " << seed;
  }
}

// Sweep results are reduced in seed order regardless of worker count;
// the ladder queue must keep that equivalence (each case is an
// independent single-threaded simulation either way).
TEST(QueueEquivalence, ChaosSweepIdenticalAcrossThreadCounts) {
  harness::ChaosOptions co;
  co.n = 12;
  co.max_crashes = 1;
  co.loss = 0.02;
  auto one = co;
  one.threads = 1;
  auto eight = co;
  eight.threads = 8;
  const auto a =
      SweepChaos(proto::nosod::MakeFaultTolerant(1), 100, 16, one);
  const auto b =
      SweepChaos(proto::nosod::MakeFaultTolerant(1), 100, 16, eight);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.crashes_injected, b.crashes_injected);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated);
  EXPECT_EQ(a.messages_reordered, b.messages_reordered);
  EXPECT_EQ(a.timers_fired, b.timers_fired);
  EXPECT_EQ(a.messages.mean(), b.messages.mean());
  EXPECT_EQ(a.time.mean(), b.time.mean());
}

bool LargeTestsEnabled() {
  const char* v = std::getenv("CELECT_LARGE_TESTS");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Million-node smoke elections (the ladder's reason to exist). Opt-in:
// CELECT_LARGE_TESTS=1. Protocol C wants a power of two, so its run uses
// N = 2^20 = 1,048,576; G(3) runs at exactly 10^6.
TEST(QueueEquivalence, LargeMillionNodeProtocolCSmoke) {
  if (!LargeTestsEnabled()) {
    GTEST_SKIP() << "set CELECT_LARGE_TESTS=1 to run (needs ~2 GB, ~10 s)";
  }
  RunOptions o;
  o.n = 1u << 20;
  o.mapper = MapperKind::kSenseOfDirection;
  o.identity = harness::IdentityKind::kRandomPermutation;
  auto r = harness::RunElection(proto::sod::MakeProtocolC(), o);
  EXPECT_EQ(r.leader_declarations, 1u);
  EXPECT_TRUE(r.leader_id.has_value());
  EXPECT_GT(r.events_processed, o.n);
}

TEST(QueueEquivalence, LargeMillionNodeProtocolGSmoke) {
  if (!LargeTestsEnabled()) {
    GTEST_SKIP() << "set CELECT_LARGE_TESTS=1 to run (needs ~4 GB, ~40 s)";
  }
  RunOptions o;
  o.n = 1'000'000;
  o.mapper = MapperKind::kRandom;
  o.identity = harness::IdentityKind::kRandomPermutation;
  auto r = harness::RunElection(proto::nosod::MakeProtocolG(3), o);
  EXPECT_EQ(r.leader_declarations, 1u);
  EXPECT_TRUE(r.leader_id.has_value());
  EXPECT_GT(r.events_processed, o.n);
}

}  // namespace
}  // namespace celect
