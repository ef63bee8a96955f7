// Allocation budget of the per-event checker, the timer table and the
// delivery path. Once a run has warmed up, a LeaseMonitor with a
// chained InvariantRegistry must check every event without touching the
// heap; arming, cancelling and firing a timer must not either, nor may
// a message on its way from Send through the event queue to Deliver.
// The binary replaces global operator new with a counting one, which is
// why it is an executable of its own.
//
// The scripted lease run: every node ticks once per round on a timer.
// On its tick a node re-arms the tick, cancels and re-arms a spare
// timer, bumps its gauges, and holds the lease for the next unit, so
// claims hand over between nodes, expire unnoticed, change term, and
// in every round one node leaves a coverage gap that the next closes.
// The checker's state grows only while the run warms up: per-node
// gauge slots on a node's first event, timeline segments until the
// timeline cap, timer storage until its high-water mark.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "celect/analysis/invariants.h"
#include "celect/analysis/lease_monitor.h"
#include "celect/sim/event_queue.h"
#include "celect/sim/network.h"
#include "celect/sim/runtime.h"
#include "celect/wire/packet.h"

namespace {

std::uint64_t g_allocations = 0;
std::uint64_t g_frees = 0;
// Size of the largest single request since the last reset.
std::size_t g_largest_request = 0;
// Requests of kLargeRequest bytes or more, ever.
constexpr std::size_t kLargeRequest = std::size_t{1} << 20;
std::uint64_t g_large_requests = 0;

void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  g_largest_request = std::max(g_largest_request, size);
  if (size >= kLargeRequest) ++g_large_requests;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void CountedFree(void* p) {
  if (p != nullptr) ++g_frees;
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace celect::analysis {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::int64_t kRounds = 6'000;
// Ticks stop here, so the spare timers drain and the run quiesces.
const sim::Time kHorizon = sim::Time::FromUnits(kRounds * kNodes);
// Rounds before measuring: past the timeline cap and far past any
// storage high-water mark.
constexpr std::int64_t kWarmRounds = 3'000;

// Heap allocations seen inside each measured operation, after warm-up.
struct Budget {
  bool measuring = false;
  // g_allocations when the last observer call returned.
  std::uint64_t mark = 0;
  std::uint64_t after_event_calls = 0;
  std::uint64_t after_event_allocs = 0;
  std::uint64_t arms = 0;
  std::uint64_t arm_allocs = 0;
  std::uint64_t cancels = 0;
  std::uint64_t cancel_allocs = 0;
  std::uint64_t fires = 0;
  std::uint64_t fire_allocs = 0;
};

Budget g_budget;

class LeaseTicker : public sim::Process {
 public:
  explicit LeaseTicker(const sim::ProcessInit& init) : node_(init.address) {}

  void OnWakeup(sim::Context& ctx) override {
    // Node i ticks at i, i + n, i + 2n, ... units.
    tick_ = Arm(ctx, sim::Time::FromUnits(node_));
  }
  void OnMessage(sim::Context&, sim::Port, const wire::Packet&) override {}

  void OnTimer(sim::Context& ctx, sim::TimerId timer) override {
    // The fire path: everything from the previous observer call up to
    // here (queue pop, table lookup, dispatch) allocated nothing.
    if (g_budget.measuring) {
      ++g_budget.fires;
      g_budget.fire_allocs += g_allocations - g_budget.mark;
    }
    if (timer != tick_ || ctx.now() >= kHorizon) return;
    ++round_;
    tick_ = Arm(ctx, sim::Time::FromUnits(kNodes));
    if (spare_ != sim::kInvalidTimer) {
      const std::uint64_t before = g_allocations;
      ctx.CancelTimer(spare_);
      if (g_budget.measuring) {
        ++g_budget.cancels;
        g_budget.cancel_allocs += g_allocations - before;
      }
    }
    spare_ = Arm(ctx, sim::Time::FromUnits(3 * kNodes));
    level_ += round_ % 2;
    // Hold for one unit, minus a tick, except every fourth round (one
    // node per round): a one-unit gap.
    holding_ = (round_ + node_) % 4 != 0;
    if (round_ % 8 == 0) ++term_;
    deadline_ = ctx.now() + sim::Time::FromUnits(1) - sim::Time::FromTicks(1);
  }

  sim::ProtocolObservables Observe() const override {
    sim::ProtocolObservables o;
    o.monotone = {{"level", level_}, {"round", round_}, {"lease.term", term_}};
    if (holding_) {
      o.lease = sim::ProtocolObservables::LeaseClaim{term_, deadline_};
    }
    o.terminated = false;
    return o;
  }

 private:
  sim::TimerId Arm(sim::Context& ctx, sim::Time delay) {
    const std::uint64_t before = g_allocations;
    const sim::TimerId t = ctx.SetTimer(delay);
    if (g_budget.measuring) {
      ++g_budget.arms;
      g_budget.arm_allocs += g_allocations - before;
    }
    return t;
  }

  sim::NodeId node_;
  sim::TimerId tick_ = sim::kInvalidTimer;
  sim::TimerId spare_ = sim::kInvalidTimer;
  std::int64_t round_ = 0;
  std::int64_t level_ = 0;
  std::int64_t term_ = 1;
  bool holding_ = false;
  sim::Time deadline_ = sim::Time::Zero();
};

// Counts allocations inside the monitor (and its chained registry), and
// starts measuring once the run is past its warm-up.
class MeasuringObserver : public sim::RunObserver {
 public:
  explicit MeasuringObserver(sim::RunObserver& inner) : inner_(inner) {}
  void AfterEvent(sim::NodeId target, const sim::RunInspect& in) override {
    if (in.now >= sim::Time::FromUnits(kWarmRounds * kNodes)) {
      g_budget.measuring = true;
    }
    const std::uint64_t before = g_allocations;
    inner_.AfterEvent(target, in);
    if (g_budget.measuring) {
      ++g_budget.after_event_calls;
      g_budget.after_event_allocs += g_allocations - before;
    }
    g_budget.mark = g_allocations;
  }
  void AtQuiescence(const sim::RunInspect& in) override {
    g_budget.measuring = false;
    inner_.AtQuiescence(in);
  }

 private:
  sim::RunObserver& inner_;
};

TEST(CheckerAllocBudget, WarmLeaseRunAllocatesNothingPerEventOrTimer) {
  // The tallies are global (the processes reach them); a repeated or
  // shuffled run must start from zero.
  g_budget = {};
  sim::NetworkConfig c;
  c.n = kNodes;
  c.mapper = sim::MakeSodMapper(kNodes);
  c.delays = sim::MakeUnitDelay();
  c.wakeup = sim::WakeAllAtZero(kNodes);

  InvariantOptions io;
  io.unique_leader = true;
  InvariantRegistry registry(io);
  LeaseMonitorOptions mo;
  mo.horizon = kHorizon;
  mo.reelection_window = sim::Time::FromUnits(3);
  mo.max_timeline = 256;
  mo.chained = &registry;
  LeaseMonitor monitor(mo);
  MeasuringObserver observer(monitor);
  sim::RuntimeOptions opt;
  opt.observer = &observer;
  auto factory = [](const sim::ProcessInit& init) {
    return std::make_unique<LeaseTicker>(init);
  };
  sim::Runtime rt(std::move(c), factory, opt);
  const sim::RunResult r = rt.Run();

  EXPECT_TRUE(monitor.ok()) << monitor.Summary();
  EXPECT_TRUE(registry.ok()) << registry.Summary();
  // The script exercised what it claims to: gaps that closed, a full
  // timeline, cancels.
  EXPECT_GT(monitor.election_latency().count(), 1000u);
  EXPECT_EQ(monitor.timeline().size(), mo.max_timeline);
  EXPECT_GT(r.counters.at("sim.timers_cancelled"), 1000);

  EXPECT_GT(g_budget.after_event_calls, 10'000u);
  EXPECT_GT(g_budget.arms, 10'000u);
  EXPECT_GT(g_budget.cancels, 5'000u);
  EXPECT_GT(g_budget.fires, 5'000u);
  EXPECT_EQ(g_budget.after_event_allocs, 0u)
      << "over " << g_budget.after_event_calls << " AfterEvent calls";
  EXPECT_EQ(g_budget.arm_allocs, 0u) << "over " << g_budget.arms << " arms";
  EXPECT_EQ(g_budget.cancel_allocs, 0u)
      << "over " << g_budget.cancels << " cancels";
  EXPECT_EQ(g_budget.fire_allocs, 0u) << "over " << g_budget.fires << " fires";
}

// Two nodes bounce one message until `kVolleys` deliveries. Node 0
// serves on wakeup; every delivery is answered through its arrival port.
constexpr std::uint64_t kVolleys = 20'000;
constexpr std::uint64_t kWarmVolleys = 1'000;

struct DeliveryBudget {
  std::uint64_t deliveries = 0;
  std::uint64_t measured = 0;
  std::uint64_t allocs = 0;
  // g_allocations at the previous delivery's entry.
  std::uint64_t mark = 0;
};

DeliveryBudget g_delivery;

class Volley : public sim::Process {
 public:
  explicit Volley(const sim::ProcessInit& init) : node_(init.address) {}

  void OnWakeup(sim::Context& ctx) override {
    if (node_ == 0) ctx.Send(1, wire::Packet{1, {0, 7, 7}});
  }
  void OnMessage(sim::Context& ctx, sim::Port from_port,
                 const wire::Packet& p) override {
    // Everything since the previous delivery's entry: that handler's
    // Send (Transmit, the queue push), the run loop's Pop and dispatch,
    // and this Deliver.
    const std::uint64_t now = g_allocations;
    if (++g_delivery.deliveries > kWarmVolleys) {
      ++g_delivery.measured;
      g_delivery.allocs += now - g_delivery.mark;
    }
    g_delivery.mark = now;
    if (g_delivery.deliveries < kVolleys) {
      ctx.Send(from_port, wire::Packet{p.type, {p.field(0) + 1, 7, 7}});
    }
  }

 private:
  sim::NodeId node_;
};

TEST(DeliveryAllocBudget, WarmPingPongAllocatesNothingPerDelivery) {
  g_delivery = {};
  sim::NetworkConfig c;
  c.n = 2;
  c.mapper = sim::MakeSodMapper(2);
  c.delays = sim::MakeUnitDelay();
  c.wakeup = sim::WakeAllAtZero(2);
  auto factory = [](const sim::ProcessInit& init) {
    return std::make_unique<Volley>(init);
  };
  sim::Runtime rt(std::move(c), factory);
  const sim::RunResult r = rt.Run();

  EXPECT_EQ(r.total_messages, kVolleys);
  EXPECT_EQ(g_delivery.deliveries, kVolleys);
  EXPECT_EQ(g_delivery.measured, kVolleys - kWarmVolleys);
  EXPECT_EQ(g_delivery.allocs, 0u)
      << "over " << g_delivery.measured << " deliveries";
}

// One long timer, armed first, keeps every later timer record in the
// dense table alive (the table drops only a dead prefix). S short timers
// then fire one after another, each arming the next.
constexpr int kShortTimers = 1024;
// The timer table's record: {seq, slot, node}.
constexpr std::size_t kTimerRecBytes = 16;

struct TableRequests {
  int shorts_armed = 0;
  // Largest single allocation made inside any SetTimer call.
  std::size_t largest_request = 0;
};

TableRequests g_table;

class PinnedTimers : public sim::Process {
 public:
  explicit PinnedTimers(const sim::ProcessInit& init) : node_(init.address) {}

  void OnWakeup(sim::Context& ctx) override {
    if (node_ != 0) return;
    Arm(ctx, sim::Time::FromUnits(kShortTimers + 10));
    ArmShort(ctx);
  }
  void OnMessage(sim::Context&, sim::Port, const wire::Packet&) override {}
  void OnTimer(sim::Context& ctx, sim::TimerId) override {
    if (g_table.shorts_armed < kShortTimers) ArmShort(ctx);
  }

 private:
  void ArmShort(sim::Context& ctx) {
    ++g_table.shorts_armed;
    Arm(ctx, sim::Time::FromUnits(1));
  }
  void Arm(sim::Context& ctx, sim::Time delay) {
    g_largest_request = 0;
    ctx.SetTimer(delay);
    g_table.largest_request =
        std::max(g_table.largest_request, g_largest_request);
  }

  sim::NodeId node_;
};

TEST(TimerTableBudget, PinnedTableStaysWithinTwiceTheIdSpan) {
  g_table = {};
  sim::NetworkConfig c;
  c.n = 2;
  c.mapper = sim::MakeSodMapper(2);
  c.delays = sim::MakeUnitDelay();
  c.wakeup = sim::WakeAllAtZero(2);
  auto factory = [](const sim::ProcessInit& init) {
    return std::make_unique<PinnedTimers>(init);
  };
  sim::Runtime rt(std::move(c), factory);
  const sim::RunResult r = rt.Run();

  EXPECT_EQ(g_table.shorts_armed, kShortTimers);
  EXPECT_EQ(r.timers_fired, static_cast<std::uint64_t>(kShortTimers) + 1);
  // The table held all S + 1 records at once, so the pin was real...
  EXPECT_GE(g_table.largest_request, kTimerRecBytes * (kShortTimers + 1));
  // ...and doubling growth never asked for more than twice that.
  EXPECT_LE(g_table.largest_request, 2 * kTimerRecBytes * (kShortTimers + 1));
}

// Events still pending when a queue is destroyed, tombstones and the
// borrowed one included: the queue hands back every block it took.
// Queued packets are packed inline and own no memory, so what remains
// to check is that the pools' segments all come back.
TEST(EventQueueAllocBudget, DestroyFreesEachPendingBodyOnce) {
  // Pending events left; drained with the last pop still borrowed;
  // drained through a null pop.
  enum class End { kPending, kBorrowedLast, kDrained };
  for (const End end : {End::kPending, End::kBorrowedLast, End::kDrained}) {
    const std::uint64_t held = g_allocations - g_frees;
    {
      sim::EventQueue q;
      std::vector<sim::EventTicket> tickets;
      for (std::int64_t i = 0; i < 300; ++i) {
        sim::PackedPacket p;
        p.type = 3;
        p.count = sim::PackedPacket::kInlineFields;
        for (std::size_t f = 0; f < sim::PackedPacket::kInlineFields; ++f) {
          p.f[f] = static_cast<std::int32_t>(i + static_cast<int>(f));
        }
        // Near, in-wheel and far-heap arrival times.
        const std::int64_t ticks =
            (i % 3) * (std::int64_t{1} << 23) * 3 + 100 + i;
        tickets.push_back(q.PushTicketed(
            sim::Time::FromTicks(ticks),
            sim::DeliveryEvent{0, 1, 1, 0, 0, 0, p}));
      }
      for (std::size_t i = 0; i < tickets.size(); i += 5) {
        q.Cancel(tickets[i]);
      }
      for (int i = 0; i < 30; ++i) ASSERT_NE(q.Pop(), nullptr);
      if (end != End::kPending) {
        while (q.Size() + q.Tombstones() > 0) {
          ASSERT_NE(q.Pop(), nullptr);
        }
        if (end == End::kDrained) {
          EXPECT_EQ(q.Pop(), nullptr);
        }
      }
    }
    EXPECT_EQ(g_allocations - g_frees, held)
        << "end " << static_cast<int>(end);
  }
}

// A large queue's pool segments are parked when it is destroyed and
// taken by the next queue, so a run of same-sized elections maps its
// large blocks once, and small queues in between do not undo that.
// 80,000 events at 8 instants take the slot arena (64-byte slots) past
// 65,536 entries, a 4 MiB segment, and the chunk pool (16 handles a
// chunk) past 4,096, a 1.6 MB segment.
constexpr std::int64_t kLargeQueue = 80'000;

// Fills a fresh queue with `n` events, drains it and destroys it; returns
// the requests of 1 MiB or more it made.
std::uint64_t FillAndDrain(std::int64_t n) {
  const std::uint64_t before = g_large_requests;
  sim::EventQueue q;
  for (std::int64_t i = 0; i < n; ++i) {
    q.Push(sim::Time::FromTicks(100 + i % 8),
           sim::WakeupEvent{static_cast<sim::NodeId>(i)});
  }
  while (q.Pop() != nullptr) {
  }
  return g_large_requests - before;
}

TEST(EventQueueAllocBudget, SecondLargeQueueReusesTheFirstsSegments) {
  // The first queue asks for its large segments (unless an earlier test
  // left some parked)...
  FillAndDrain(kLargeQueue);
  // ...and a second queue of the same size asks for none.
  EXPECT_EQ(FillAndDrain(kLargeQueue), 0u);
}

TEST(EventQueueAllocBudget, SmallQueuesBetweenLargeOnesKeepNoLargeRequests) {
  const std::uint64_t before = g_large_requests;
  FillAndDrain(kLargeQueue);
  const std::uint64_t after_first = g_large_requests;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(FillAndDrain(1'000), 0u) << "small queue " << i;
    EXPECT_EQ(FillAndDrain(kLargeQueue), 0u) << "large queue " << i;
  }
  EXPECT_EQ(g_large_requests, after_first)
      << (after_first - before) << " large requests in the first queue";
}

}  // namespace
}  // namespace celect::analysis
