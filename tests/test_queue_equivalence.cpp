// Pinned run digests for the simulator's event queue.
//
// The ladder queue (event_queue.{h,cpp}) may change how fast events
// come out, never which events or in what order. Each test below folds
// the FingerprintResult of every run it makes, in order, into one FNV-1a
// digest and pins it. The digests were recorded where the ladder and
// the seed binary heap (heap_event_queue.h) still drove the same runs
// and agreed on every one, across the E7-style protocol grid, staggered
// wakeups with serialized packets, a protocol D flood spanning many
// chunks, and the chaos harness (faults, cancelled timers, duplicates).
// A queue change that reorders anything moves a digest; the queue-level
// differential tests in test_event_queue.cpp then say where. A failing
// digest prints every case's fingerprint.
//
// The ...MatchesReferenceHeap names are kept from when these tests ran
// each case on both queues: the pins are the digests the reference heap
// produced. A digest covers whole runs (counters and phase stamps too),
// so a deliberate protocol or counter change also moves it. Re-pin only
// when (1) test_event_queue's differential tests pass, so the ladder
// still pops exactly what HeapEventQueue pops, and (2) the per-case
// fingerprints printed before and after the change differ only in the
// cases the change meant to move. Then copy the printed digest into the
// test and say in the commit which cases moved and why.
//
// An opt-in large configuration (CELECT_LARGE_TESTS=1 in the
// environment) runs the million-node smoke elections from the ladder's
// acceptance bar; they need a few GB of RAM and ~1 minute.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
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
#include "celect/wire/checksum.h"

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

// One test's runs folded in order into an FNV-1a digest, with a
// per-case listing to print when the digest does not match its pin.
class RunDigest {
 public:
  void Add(const std::string& label, std::uint64_t fingerprint) {
    for (int i = 0; i < 8; ++i) {
      fnv_.Update(static_cast<std::uint8_t>(fingerprint >> (8 * i)));
    }
    cases_ << "  " << label << ": 0x" << std::hex << fingerprint << std::dec
           << "\n";
  }
  void Add(const std::string& label, const std::string& text) {
    fnv_.Update(reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size());
    cases_ << "  " << label << ": \"" << text << "\"\n";
  }
  std::uint64_t digest() const { return fnv_.Digest64(); }
  std::string cases() const { return cases_.str(); }

 private:
  wire::Fnv1aStream fnv_;
  std::ostringstream cases_;
};

void AddElection(RunDigest& digest, const GridProtocol& p,
                 const RunOptions& options, const std::string& label) {
  digest.Add(std::string(p.name) + " " + label,
             FingerprintResult(harness::RunElection(p.factory, options)));
}

TEST(QueueEquivalence, ProtocolGridMatchesReferenceHeap) {
  RunDigest digest;
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
        AddElection(digest, p, o,
                    "n=" + std::to_string(n) + " delay=" +
                        std::to_string(static_cast<int>(delay)));
      }
    }
  }
  EXPECT_EQ(digest.digest(), 0xa6831bdf3113b9aaULL) << digest.cases();
}

// The digest was pinned while every packet also round-tripped the wire
// codec; the round trip changed no result, and WireFuzz covers it.
TEST(QueueEquivalence, StaggeredWakeupsAndSerializedPackets) {
  RunDigest digest;
  for (const auto& p : GridProtocols()) {
    RunOptions o;
    o.n = 32;
    o.seed = 11;
    o.mapper = p.sod ? MapperKind::kSenseOfDirection : MapperKind::kRandom;
    o.delay = DelayKind::kRandom;
    o.wakeup = WakeupKind::kStaggeredChain;
    AddElection(digest, p, o, "staggered");
  }
  EXPECT_EQ(digest.digest(), 0xbaf2ea51e364141dULL) << digest.cases();
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
  RunDigest digest;
  AddElection(digest, d, o, "n=128 unit delays");
  EXPECT_EQ(digest.digest(), 0x028a1142912a3babULL) << digest.cases();
}

// Chaos runs exercise exactly what the grid above can't: cancelled
// timers popping as tombstones, crash-cleared timer sets, duplicated
// and reordered deliveries.
TEST(QueueEquivalence, ChaosCasesMatchReferenceHeap) {
  RunDigest digest;
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    harness::ChaosOptions co;
    co.n = 16;
    co.max_crashes = 1;
    co.loss = 0.05;
    co.duplicate = 0.05;
    co.reorder = 0.05;
    const auto c = RunChaosCase(proto::nosod::MakeFaultTolerant(1), seed, co);
    const std::string label = "chaos seed " + std::to_string(seed);
    digest.Add(label, FingerprintResult(c.result));
    digest.Add(label + " violation", c.violation);
  }
  EXPECT_EQ(digest.digest(), 0x896f2a088245fa43ULL) << digest.cases();
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
