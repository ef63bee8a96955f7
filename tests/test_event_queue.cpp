// Ladder-queue specifics: tombstone accounting, arena reuse across
// segment boundaries, far-horizon drains, bucket chunk lists, and
// randomized differential checks against the reference binary heap. The
// basic ordering contract (time, then insertion order) is covered in
// test_sim_core.cpp; these tests pin the parts the ladder rework added.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "celect/sim/event_queue.h"
#include "celect/sim/heap_event_queue.h"
#include "celect/util/rng.h"

namespace celect::sim {
namespace {

Time T(double units) { return Time::FromDouble(units); }

TEST(EventQueueTombstones, CancelledEventLeavesSizeButStillPops) {
  EventQueue q;
  q.Push(T(1.0), WakeupEvent{0});
  EventTicket t = q.PushTicketed(T(2.0), TimerEvent{0, 7});
  EXPECT_EQ(q.Size(), 2u);

  q.Cancel(t);
  // Live accounting excludes the tombstone...
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.Tombstones(), 1u);
  EXPECT_FALSE(q.Empty());

  // ...but the event still pops in order, exactly like the reference
  // heap, so event counts and fingerprints are unchanged.
  auto a = q.Pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->at, T(1.0));
  auto b = q.Pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->at, T(2.0));
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Tombstones(), 0u);
}

TEST(EventQueueTombstones, PeekTimeSkipsCancelledEarliest) {
  EventQueue q;
  EventTicket first = q.PushTicketed(T(1.0), TimerEvent{0, 1});
  q.Push(T(5.0), WakeupEvent{1});
  q.Cancel(first);
  // The earliest *live* event defines the horizon; the cancelled timer
  // no longer pins PeekTime at 1.0.
  EXPECT_EQ(q.PeekTime(), T(5.0));
}

TEST(EventQueueTombstones, FarFutureCancelDoesNotHoldTheHorizon) {
  EventQueue q;
  q.Push(T(1.0), WakeupEvent{0});
  // Far beyond the wheel horizon (the far-heap region).
  EventTicket lease = q.PushTicketed(T(100000.0), TimerEvent{3, 9});
  q.Cancel(lease);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.PeekTime(), T(1.0));
}

TEST(EventQueueTombstones, CancelAfterPopIsANoOp) {
  EventQueue q;
  EventTicket t = q.PushTicketed(T(1.0), TimerEvent{0, 1});
  ASSERT_TRUE(q.Pop().has_value());
  q.Cancel(t);  // slot already freed; must not corrupt accounting
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Tombstones(), 0u);

  // The freed slot is reused by the next push; the stale ticket must not
  // kill the new occupant.
  q.Push(T(2.0), WakeupEvent{1});
  q.Cancel(t);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueue, ArenaSurvivesChunkBoundariesAndReuse) {
  EventQueue q;
  // Well past the first arena segments (64, 128, 256, ... slots).
  constexpr int kCount = 5000;
  for (int i = 0; i < kCount; ++i) {
    q.Push(T(0.001 * i), WakeupEvent{static_cast<NodeId>(i)});
  }
  for (int i = 0; i < kCount; ++i) {
    auto e = q.Pop();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(std::get<WakeupEvent>(e->body).node,
              static_cast<NodeId>(i));
  }
  EXPECT_TRUE(q.Empty());

  // Freed slots recycle: push another wave through the same queue.
  for (int i = 0; i < kCount; ++i) {
    q.Push(T(1000.0 + 0.001 * i), WakeupEvent{static_cast<NodeId>(i)});
  }
  for (int i = 0; i < kCount; ++i) {
    auto e = q.Pop();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(std::get<WakeupEvent>(e->body).node,
              static_cast<NodeId>(i));
  }
}

TEST(EventQueue, FarDrainPreservesSameInstantSeqOrder) {
  EventQueue q;
  // Same instant, far beyond the wheel horizon: these sit in the far
  // heap and drain into one L0 bucket when serving reaches their block.
  const Time far = T(50000.0);
  for (NodeId i = 0; i < 64; ++i) q.Push(far, WakeupEvent{i});
  q.Push(T(0.5), WakeupEvent{1000});
  ASSERT_TRUE(q.Pop().has_value());  // the near event first
  for (NodeId i = 0; i < 64; ++i) {
    auto e = q.Pop();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(std::get<WakeupEvent>(e->body).node, i) << "push order broken";
  }
}

TEST(EventQueue, TakeRemovesBySeqAndKeepsOrder) {
  EventQueue q;
  std::uint64_t s0 = q.Push(T(1.0), WakeupEvent{0});
  std::uint64_t s1 = q.Push(T(2.0), WakeupEvent{1});
  std::uint64_t s2 = q.Push(T(3.0), WakeupEvent{2});
  (void)s0;
  Event mid = q.Take(s1);
  EXPECT_EQ(std::get<WakeupEvent>(mid.body).node, 1u);
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_EQ(std::get<WakeupEvent>(q.Pop()->body).node, 0u);
  EXPECT_EQ(std::get<WakeupEvent>(q.Pop()->body).node, 2u);
  (void)s2;
}

// Differential test: random pushes (near, wheel-horizon, and far times),
// random ticketed cancels, and interleaved pops must match the reference
// binary heap event for event. The heap has no tombstones, so cancelled
// events are tracked outside and skipped on its side.
TEST(EventQueue, RandomizedDifferentialAgainstReferenceHeap) {
  Rng rng(20260807);
  EventQueue ladder;
  HeapEventQueue heap;
  std::vector<EventTicket> cancellable;
  std::uint64_t time_floor = 0;  // popped times never go backwards

  auto random_time = [&]() {
    // Mix of same-tick bursts, in-wheel, and far-heap targets.
    std::uint64_t span;
    switch (rng.NextBelow(4)) {
      case 0: span = 8; break;                   // same/near tick
      case 1: span = 1 << 12; break;             // current block
      case 2: span = std::uint64_t{1} << 23; break;  // inside the wheel
      default: span = std::uint64_t{1} << 30; break;  // far heap
    }
    return Time::FromTicks(
        static_cast<std::int64_t>(time_floor + rng.NextBelow(span)));
  };

  for (int round = 0; round < 20000; ++round) {
    const std::uint32_t op = rng.NextBelow(10);
    if (op < 5) {  // push
      const Time at = random_time();
      const NodeId node = static_cast<NodeId>(round);
      EventTicket t = ladder.PushTicketed(at, WakeupEvent{node});
      heap.Push(at, WakeupEvent{node});
      if (rng.NextBelow(4) == 0) cancellable.push_back(t);
    } else if (op < 6 && !cancellable.empty()) {  // cancel a random timer
      const std::size_t pick = rng.NextBelow(cancellable.size());
      ladder.Cancel(cancellable[pick]);
      cancellable.erase(cancellable.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      // The reference heap has no cancellation; the tombstone still pops
      // on the ladder side, so the pop streams stay aligned.
    } else {  // pop
      auto a = ladder.Pop();
      auto b = heap.Pop();
      ASSERT_EQ(a.has_value(), b.has_value()) << "round " << round;
      if (!a) continue;
      ASSERT_EQ(a->at, b->at) << "round " << round;
      ASSERT_EQ(a->seq, b->seq) << "round " << round;
      time_floor = static_cast<std::uint64_t>(a->at.ticks());
    }
  }
  // Drain both and compare the tails.
  for (;;) {
    auto a = ladder.Pop();
    auto b = heap.Pop();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    ASSERT_EQ(a->at, b->at);
    ASSERT_EQ(a->seq, b->seq);
  }
}

// Bucket chunk lists. A bucket holds 16 handles per chunk; the ladder's
// block is 4096 ticks and its wheel spans 4096 blocks, so these tick
// offsets pick the region a push lands in.
constexpr std::int64_t kChunkHandles = 16;
constexpr std::int64_t kWheelTicks = std::int64_t{1} << 24;

// Drives the ladder and the reference heap in lockstep. Cancel and Take
// apply to both (the heap keeps cancelled events, and so does the ladder
// until they pop as tombstones), so both pop streams must match exactly.
class Lockstep {
 public:
  EventTicket Push(std::int64_t ticks) {
    const Time at = Time::FromTicks(ticks);
    const NodeId node = static_cast<NodeId>(pushed_++);
    const EventTicket t = ladder_.PushTicketed(at, WakeupEvent{node});
    EXPECT_EQ(heap_.Push(at, WakeupEvent{node}), t.seq);
    return t;
  }
  void Cancel(const EventTicket& t) {
    ladder_.Cancel(t);
    cancelled_.insert(t.seq);
  }
  void Take(std::uint64_t seq) {
    const Event a = ladder_.Take(seq);
    const Event b = heap_.Take(seq);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.at, b.at);
  }
  // Pops one event from each side; false once both are empty.
  bool PopBoth() {
    auto a = ladder_.Pop();
    auto b = heap_.Pop();
    EXPECT_EQ(a.has_value(), b.has_value());
    if (!a || !b) return false;
    EXPECT_EQ(a->at, b->at);
    EXPECT_EQ(a->seq, b->seq);
    EXPECT_EQ(std::get<WakeupEvent>(a->body).node,
              std::get<WakeupEvent>(b->body).node);
    return a->seq == b->seq && a->at == b->at;
  }
  std::size_t Drain() {
    std::size_t n = 0;
    while (PopBoth()) ++n;
    return n;
  }
  // The ladder's live horizon must be the earliest non-cancelled event
  // the reference heap still holds.
  void ExpectPeekTimeMatchesHeap() {
    std::optional<Time> want;
    std::size_t live = 0;
    for (const Event& e : heap_.events()) {
      if (cancelled_.count(e.seq) != 0) continue;
      ++live;
      if (!want || e.at < *want) want = e.at;
    }
    ASSERT_EQ(ladder_.Size(), live);
    if (want) {
      EXPECT_EQ(ladder_.PeekTime(), *want);
    }
  }
  EventQueue& ladder() { return ladder_; }

 private:
  EventQueue ladder_;
  HeapEventQueue heap_;
  std::set<std::uint64_t> cancelled_;
  std::uint64_t pushed_ = 0;
};

TEST(EventQueueChunks, SameInstantPushesWhileServingCrossChunkBoundaries) {
  Lockstep q;
  const std::int64_t t = 5000;
  for (int i = 0; i < 10; ++i) q.Push(t);
  q.Push(t + 1);
  std::int64_t at_t = 10;
  std::int64_t popped = 0;
  // Serve part of the instant, then keep pushing to it: the new handles
  // fill the served chunk, spill into fresh ones and pop after the rest.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 3; ++i, ++popped) ASSERT_TRUE(q.PopBoth());
    for (int i = 0; i < 7; ++i, ++at_t) q.Push(t);
  }
  // Top the instant up to four full chunks and serve all of it, so the
  // last pop leaves the bucket's full tail chunk spent.
  for (; at_t < 4 * kChunkHandles; ++at_t) q.Push(t);
  for (; popped < at_t; ++popped) ASSERT_TRUE(q.PopBoth());
  // Pushes to the same instant before the next pop chain a fresh chunk,
  // which is still served ahead of t + 1.
  q.Push(t);
  q.Push(t);
  EXPECT_EQ(q.Drain(), 3u);
  // The queue keeps working after a complete drain, at the same instant.
  q.Push(t + 1);
  EXPECT_EQ(q.Drain(), 1u);
}

TEST(EventQueueChunks, FarDrainIntoMultiChunkBucketKeepsSeqOrder) {
  Lockstep q;
  const std::int64_t far = 4 * kWheelTicks;
  // Beyond the wheel: three chunks' worth of one instant in the far heap.
  for (int i = 0; i < 2 * kChunkHandles + 5; ++i) q.Push(far);
  for (int i = 0; i < 9; ++i) q.Push(far + 1);
  // Serving jumps to within the wheel's reach of `far`...
  q.Push(far - kWheelTicks / 2);
  ASSERT_TRUE(q.PopBoth());
  // ...so these land in L1: one uniform bucket spliced after the far
  // drain's partial tail chunk, and a mixed one scattered behind it.
  for (int i = 0; i < 2 * kChunkHandles + 3; ++i) q.Push(far);
  const std::int64_t mixed = far + 3 * 4096;
  for (int i = 0; i < 3 * kChunkHandles; ++i) q.Push(mixed + i % 3);
  for (int i = 0; i < 7; ++i) q.Push(mixed - kWheelTicks / 2 - 1);
  q.ExpectPeekTimeMatchesHeap();
  // Same-instant pushes once the spliced bucket is being served.
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(q.PopBoth());
  for (int i = 0; i < kChunkHandles; ++i) q.Push(far);
  q.ExpectPeekTimeMatchesHeap();
  EXPECT_EQ(q.Drain(), static_cast<std::size_t>(2 * kChunkHandles + 5 + 9 +
                                                2 * kChunkHandles + 3 +
                                                3 * kChunkHandles + 7 +
                                                kChunkHandles - 20));
}

TEST(EventQueueChunks, PeekTakeCancelAfterChunksAreServedAndRecycled) {
  Lockstep q;
  std::vector<EventTicket> a;
  std::vector<EventTicket> b;
  for (int i = 0; i < 50; ++i) a.push_back(q.Push(100));
  for (int i = 0; i < 50; ++i) b.push_back(q.Push(200));
  // Serve past two chunk boundaries; the spent chunks go back to the
  // pool and the next pushes reuse them.
  for (int i = 0; i < 2 * kChunkHandles + 4; ++i) ASSERT_TRUE(q.PopBoth());
  for (int i = 0; i < 40; ++i) b.push_back(q.Push(200));
  for (int i = 0; i < 40; ++i) b.push_back(q.Push(kWheelTicks / 4));
  q.ExpectPeekTimeMatchesHeap();

  // Cancel everything left at the served instant: the horizon moves on
  // to the next instant even though the tombstones have not popped.
  for (std::size_t i = 2 * kChunkHandles + 4; i < a.size(); ++i) {
    q.Cancel(a[i]);
  }
  q.ExpectPeekTimeMatchesHeap();
  EXPECT_EQ(q.ladder().PeekTime(), Time::FromTicks(200));

  // Take from the partly served instant, from a recycled chunk, and from
  // the wheel; then cancel a handful more.
  q.Take(a[40].seq);
  q.Take(b[0].seq);
  q.Take(b[60].seq);
  q.Take(b.back().seq);
  for (std::size_t i = 1; i < 30; i += 4) q.Cancel(b[i]);
  q.ExpectPeekTimeMatchesHeap();
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(q.PopBoth());
  q.ExpectPeekTimeMatchesHeap();
  q.Drain();
  EXPECT_TRUE(q.ladder().Empty());
}

// Unit-delay waves: every instant holds over 10^4 handles (hundreds of
// chunks), each wave is pushed while the previous one is served, and
// random cancels and same-instant pushes ride along.
TEST(EventQueueChunks, LargeInstantsDifferentialAgainstReferenceHeap) {
  Rng rng(20261017);
  Lockstep q;
  constexpr int kWave = 12000;
  const std::int64_t unit = Time::kTicksPerUnit;
  for (int i = 0; i < kWave; ++i) q.Push(unit);
  std::size_t popped = 0;
  for (int wave = 1; wave <= 4; ++wave) {
    std::vector<EventTicket> next;
    for (int i = 0; i < kWave; ++i) {
      ASSERT_TRUE(q.PopBoth());
      ++popped;
      next.push_back(q.Push((wave + 1) * unit));
      if (rng.NextBelow(64) == 0) q.Push(wave * unit);
      if (rng.NextBelow(32) == 0) {
        q.Cancel(next[static_cast<std::size_t>(rng.NextBelow(next.size()))]);
      }
    }
  }
  q.ExpectPeekTimeMatchesHeap();
  popped += q.Drain();
  EXPECT_GT(popped, static_cast<std::size_t>(5 * kWave));
}

}  // namespace
}  // namespace celect::sim
