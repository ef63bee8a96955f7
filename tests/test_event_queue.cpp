// Ladder-queue specifics: tombstone accounting, arena reuse across
// segment boundaries, far-horizon drains, bucket chunk lists, the
// borrowed-pop contract, the occupancy bitmaps' summary words, and
// randomized differential checks against the reference binary heap. The
// basic ordering contract (time, then insertion order) is covered in
// test_sim_core.cpp; these tests pin the parts the ladder rework added.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "celect/sim/event_queue.h"
#include "celect/sim/heap_event_queue.h"
#include "celect/util/rng.h"
#include "celect/wire/packet.h"

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
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->at, T(1.0));
  auto b = q.Pop();
  ASSERT_NE(b, nullptr);
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
  ASSERT_NE(q.Pop(), nullptr);
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
    ASSERT_NE(e, nullptr);
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
    ASSERT_NE(e, nullptr);
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
  ASSERT_NE(q.Pop(), nullptr);  // the near event first
  for (NodeId i = 0; i < 64; ++i) {
    auto e = q.Pop();
    ASSERT_NE(e, nullptr);
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

// Differential check: random pushes (near, wheel-horizon, and far
// times), random ticketed cancels, and interleaved pops on `ladder` must
// match the reference binary heap event for event. `prefill` pushes come
// first, so the run can start from a large queue. The heap has no
// tombstones, so cancelled events are tracked outside and skipped on its
// side.
void RandomizedDifferential(EventQueue& ladder, std::uint64_t seed,
                            int prefill) {
  Rng rng(seed);
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

  for (int i = 0; i < prefill; ++i) {
    const Time at = random_time();
    const NodeId node = static_cast<NodeId>(~std::uint32_t{0} - i);
    ladder.Push(at, WakeupEvent{node});
    heap.Push(at, WakeupEvent{node});
  }
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
      ASSERT_EQ(a != nullptr, b.has_value()) << "round " << round;
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
    ASSERT_EQ(a != nullptr, b.has_value());
    if (!a) break;
    ASSERT_EQ(a->at, b->at);
    ASSERT_EQ(a->seq, b->seq);
  }
}

TEST(EventQueue, RandomizedDifferentialAgainstReferenceHeap) {
  EventQueue ladder;
  RandomizedDifferential(ladder, 20260807, 0);
}

// Bucket chunk lists. A bucket holds 16 handles per chunk; the ladder's
// block is 4096 ticks and its wheel spans 4096 blocks, so these tick
// offsets pick the region a push lands in.
constexpr std::int64_t kChunkHandles = 16;
constexpr std::int64_t kWheelTicks = std::int64_t{1} << 24;

// A full packed payload, every inline field distinct per tag, so a slot
// that was moved or overwritten shows as a wrong field.
PackedPacket Payload(std::int64_t tag) {
  PackedPacket p;
  p.type = 9;
  p.count = PackedPacket::kInlineFields;
  for (std::size_t i = 0; i < PackedPacket::kInlineFields; ++i) {
    p.f[i] = static_cast<std::int32_t>(tag * 100 + static_cast<int>(i));
  }
  return p;
}

DeliveryEvent Delivery(NodeId to, std::int64_t tag) {
  return DeliveryEvent{0, to, 1, static_cast<std::uint32_t>(tag), 0, 0,
                       Payload(tag)};
}

// Pop lends the event in its slot: pushes made while it is borrowed,
// enough to open several new arena segments (64, 128, 256, ... slots),
// must neither move nor overwrite it.
TEST(EventQueueBorrowedPop, PoppedEventSurvivesArenaGrowth) {
  EventQueue q;
  q.Push(T(1.0), Delivery(3, 42));
  const Event* e = q.Pop();
  ASSERT_NE(e, nullptr);
  const Event copy = *e;
  for (int i = 0; i < 5000; ++i) {
    q.Push(T(2.0 + 0.001 * i), Delivery(static_cast<NodeId>(i), i));
  }
  EXPECT_EQ(e->at, copy.at);
  EXPECT_EQ(e->seq, copy.seq);
  const auto& d = std::get<DeliveryEvent>(e->body);
  EXPECT_EQ(d.to, 3u);
  EXPECT_EQ(d.mid, 42u);
  EXPECT_EQ(d.packet, Payload(42));
  EXPECT_EQ(d.packet, std::get<DeliveryEvent>(copy.body).packet);
  EXPECT_EQ(q.Size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    const Event* next = q.Pop();
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(std::get<DeliveryEvent>(next->body).packet, Payload(i));
    // Each event fills one cache line of its own.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(next) % 64, 0u);
  }
  EXPECT_EQ(q.Pop(), nullptr);
}

TEST(EventQueueBorrowedPop, CancelOnThePoppedTicketIsANoOp) {
  EventQueue q;
  const EventTicket a = q.PushTicketed(T(1.0), TimerEvent{0, 1});
  const EventTicket b = q.PushTicketed(T(2.0), TimerEvent{0, 2});
  q.Push(T(3.0), WakeupEvent{1});
  const Event* e = q.Pop();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->seq, a.seq);
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_EQ(q.Tombstones(), 0u);

  // The popped event left the pending set: cancelling it changes
  // nothing, however often, and the borrowed event stays intact.
  q.Cancel(a);
  q.Cancel(a);
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_EQ(q.Tombstones(), 0u);
  EXPECT_EQ(std::get<TimerEvent>(e->body).timer, 1u);

  // A pending timer still tombstones exactly once.
  q.Cancel(b);
  q.Cancel(b);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.Tombstones(), 1u);
  q.Cancel(a);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.Tombstones(), 1u);

  // The tombstone pops next; cancelling it now is a no-op as well.
  e = q.Pop();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->seq, b.seq);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.Tombstones(), 0u);
  q.Cancel(b);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.Tombstones(), 0u);

  // Once recycled, the popped slot takes the next push; the old ticket
  // must not kill that occupant either.
  e = q.Pop();
  ASSERT_NE(e, nullptr);
  const EventTicket c = q.PushTicketed(T(4.0), TimerEvent{0, 3});
  EXPECT_TRUE(c.slot == a.slot || c.slot == b.slot);
  q.Cancel(a);
  q.Cancel(b);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.Tombstones(), 0u);
}

TEST(EventQueueBorrowedPopDeathTest, EventsAndTakeNeverReturnThePoppedEvent) {
  EventQueue q;
  q.Push(T(1.0), WakeupEvent{0});
  const std::uint64_t s1 = q.Push(T(2.0), WakeupEvent{1});
  q.Push(T(3.0), WakeupEvent{2});
  ASSERT_EQ(q.events().size(), 3u);
  const Event* e = q.Pop();
  ASSERT_NE(e, nullptr);
  const std::uint64_t popped = e->seq;

  // The snapshot was rebuilt without the popped event.
  ASSERT_EQ(q.events().size(), 2u);
  for (const Event& pending : q.events()) {
    EXPECT_NE(pending.seq, popped);
  }
  // Take cannot find it: it is no longer pending.
  EXPECT_DEATH(q.Take(popped), "no pending event");
  const Event taken = q.Take(s1);
  EXPECT_EQ(std::get<WakeupEvent>(taken.body).node, 1u);
  ASSERT_EQ(q.events().size(), 1u);
  EXPECT_EQ(std::get<WakeupEvent>(q.events()[0].body).node, 2u);
  EXPECT_DEATH(q.Take(popped), "no pending event");
}

// Live events in every region, tombstones and a borrowed event are all
// still in the arena when the queue goes away. Events own nothing, so
// the queue frees its pools and visits no slot (ASan reports a leak or
// a double free); the allocation-counting binary checks the same
// balance by count.
TEST(EventQueueBorrowedPop, DestroyWithPendingEventsFreesEachBodyOnce) {
  {
    // In L0, in the wheel, and beyond it.
    const std::int64_t region[] = {100, kWheelTicks / 2, 4 * kWheelTicks};
    EventQueue q;
    std::vector<EventTicket> tickets;
    for (int i = 0; i < 300; ++i) {
      const std::int64_t ticks = region[i % 3] + i;
      tickets.push_back(q.PushTicketed(Time::FromTicks(ticks),
                                       Delivery(static_cast<NodeId>(i), i)));
    }
    for (std::size_t i = 0; i < tickets.size(); i += 7) q.Cancel(tickets[i]);
    for (int i = 0; i < 20; ++i) ASSERT_NE(q.Pop(), nullptr);
    EXPECT_GT(q.Size(), 0u);
    EXPECT_GT(q.Tombstones(), 0u);
  }
  // A drained queue whose last pop is still borrowed.
  EventQueue drained;
  drained.Push(T(1.0), Delivery(1, 1));
  ASSERT_NE(drained.Pop(), nullptr);
  EXPECT_TRUE(drained.Empty());
}

// Reference for BucketBits::Scan: the first set bit at or after `from`.
std::size_t LinearScan(const std::vector<bool>& bits, std::size_t from) {
  for (std::size_t i = from; i < bits.size(); ++i) {
    if (bits[i]) return i;
  }
  return BucketBits::kNpos;
}

// Reference for BucketBits::ScanCircular.
std::size_t LinearScanCircular(const std::vector<bool>& bits,
                               std::size_t start) {
  for (std::size_t step = 0; step < bits.size(); ++step) {
    const std::size_t i = (start + step) % bits.size();
    if (bits[i]) return i;
  }
  return BucketBits::kNpos;
}

// The summary word turns both searches into O(1) lookups; they must
// agree with a linear scan over the same bits, including at word edges
// (63/64) and in the last word (4032/4095), where the summary's top bit
// lives.
TEST(BucketBits, RandomizedDifferentialAgainstLinearScan) {
  Rng rng(20261018);
  constexpr std::size_t kBits = BucketBits::kBits;
  const std::size_t edges[] = {0, 1, 63, 64, 127, 128, 4032, 4033, 4095};
  for (int trial = 0; trial < 200; ++trial) {
    BucketBits b;
    std::vector<bool> ref(kBits, false);
    // A handful of bits, or a few hundred; set-only, or with clears.
    const int ops = trial % 4 == 0 ? 6 : 400;
    const std::uint64_t clear_one_in = trial % 3 == 0 ? 2 : 8;
    for (int op = 0; op < ops; ++op) {
      std::size_t i = static_cast<std::size_t>(rng.NextBelow(kBits));
      if (rng.NextBelow(3) == 0) i = edges[rng.NextBelow(std::size(edges))];
      if (trial % 3 == 2 || rng.NextBelow(clear_one_in) != 0) {
        b.Set(i);
        ref[i] = true;
      } else {
        b.Clear(i);
        ref[i] = false;
      }
      if (op % 20 != 0 && op != ops - 1) continue;
      for (const std::size_t from : edges) {
        ASSERT_EQ(b.Scan(from), LinearScan(ref, from))
            << "trial " << trial << " from " << from;
        ASSERT_EQ(b.ScanCircular(from), LinearScanCircular(ref, from))
            << "trial " << trial << " start " << from;
      }
      for (int k = 0; k < 8; ++k) {
        const std::size_t from = rng.NextBelow(kBits);
        ASSERT_EQ(b.Test(from), static_cast<bool>(ref[from]));
        ASSERT_EQ(b.Scan(from), LinearScan(ref, from));
        ASSERT_EQ(b.ScanCircular(from), LinearScanCircular(ref, from));
      }
      EXPECT_EQ(b.Scan(kBits), BucketBits::kNpos);
    }
    // Clearing every set bit empties the summary too.
    for (std::size_t i = 0; i < kBits; ++i) {
      if (ref[i]) b.Clear(i);
    }
    EXPECT_EQ(b.Scan(0), BucketBits::kNpos);
    EXPECT_EQ(b.ScanCircular(4095), BucketBits::kNpos);
  }
}

// Clears inside a non-empty word must keep its summary bit; only the
// last clear in a word drops it.
TEST(BucketBits, SummaryTracksWordsAtTheEdges) {
  BucketBits b;
  b.Set(63);
  b.Set(64);
  b.Set(4032);
  b.Set(4095);
  EXPECT_EQ(b.Scan(0), 63u);
  EXPECT_EQ(b.Scan(64), 64u);
  EXPECT_EQ(b.Scan(65), 4032u);
  b.Clear(4032);
  EXPECT_EQ(b.Scan(65), 4095u);
  EXPECT_EQ(b.ScanCircular(4095), 4095u);
  b.Clear(4095);
  EXPECT_EQ(b.Scan(65), BucketBits::kNpos);
  EXPECT_EQ(b.ScanCircular(65), 63u);
  b.Clear(63);
  EXPECT_EQ(b.ScanCircular(65), 64u);
  EXPECT_EQ(b.Scan(0), 64u);
  b.Clear(64);
  EXPECT_EQ(b.ScanCircular(0), BucketBits::kNpos);
}

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
    EXPECT_EQ(a != nullptr, b.has_value());
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

// Parked segments. A large queue's pool segments outlive it and back
// the next queue, still holding the old queue's bytes. 20,000 pending
// events at mixed times take the slot arena (64-byte slots) past
// 16,384 entries, into its 1 MiB segment, and the chunk pool into its
// 1.6 MB segment, so both pools grow segments of 1 MiB or more.
constexpr int kLargeFill = 20000;

// Grows `q` to `n` pending events at mixed times, cancels one in eight
// and drains it, leaving every slot dirty.
void GrowAndDrain(EventQueue& q, std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<EventTicket> tickets;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t span = std::uint64_t{1} << (3 + 9 * rng.NextBelow(3));
    tickets.push_back(q.PushTicketed(
        Time::FromTicks(static_cast<std::int64_t>(rng.NextBelow(span))),
        WakeupEvent{static_cast<NodeId>(i)}));
  }
  for (const EventTicket& t : tickets) {
    if (rng.NextBelow(8) == 0) q.Cancel(t);
  }
  std::size_t popped = 0;
  while (q.Pop() != nullptr) ++popped;
  EXPECT_EQ(popped, tickets.size());
}

// The second queue's segments are the first queue's, dirty; the
// randomized differential must still match the reference heap.
TEST(EventQueueParkedSegments, ReusedSegmentsMatchReferenceHeap) {
  {
    EventQueue first;
    GrowAndDrain(first, 20261019, 2 * kLargeFill);
  }
  EventQueue second;
  RandomizedDifferential(second, 20260807, kLargeFill);
}

// Four threads build, fill past 1 MiB, drain and destroy queues at once,
// so parked segments change hands between threads mid-run.
TEST(EventQueueParkedSegments, ConcurrentQueuesMatchReferenceHeap) {
  constexpr int kThreads = 4;
  constexpr int kQueuesPerThread = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kQueuesPerThread; ++i) {
        EventQueue q;
        RandomizedDifferential(q, 1000 * t + i + 1, kLargeFill);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

}  // namespace
}  // namespace celect::sim
