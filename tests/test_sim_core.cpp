// Unit tests for the simulator primitives: Time, EventQueue, LinkTable,
// DelayModels, WakeupPlans, and identity/network validation.
#include <gtest/gtest.h>

#include <set>

#include "celect/sim/delay_model.h"
#include "celect/sim/event_queue.h"
#include "celect/sim/link.h"
#include "celect/sim/network.h"
#include "celect/sim/time.h"
#include "celect/sim/wakeup_policy.h"

namespace celect::sim {
namespace {

TEST(Time, UnitArithmetic) {
  EXPECT_EQ(Time::FromUnits(3) + Time::FromUnits(4), Time::FromUnits(7));
  EXPECT_EQ(Time::FromUnits(3) * 2, Time::FromUnits(6));
  EXPECT_LT(Time::FromUnits(1), Time::FromUnits(2));
  EXPECT_EQ(kUnit.ToDouble(), 1.0);
}

TEST(Time, FromDoubleKeepsPositiveDurationsPositive) {
  EXPECT_GT(Time::FromDouble(1e-12), Time::Zero());
  EXPECT_EQ(Time::FromDouble(0.0), Time::Zero());
  EXPECT_DOUBLE_EQ(Time::FromDouble(0.5).ToDouble(), 0.5);
}

TEST(Time, FractionsAreExactInTicks) {
  Time half = Time::FromTicks(Time::kTicksPerUnit / 2);
  EXPECT_EQ(half + half, kUnit);
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.Push(Time::FromUnits(5), WakeupEvent{5});
  q.Push(Time::FromUnits(1), WakeupEvent{1});
  q.Push(Time::FromUnits(3), WakeupEvent{3});
  EXPECT_EQ(std::get<WakeupEvent>(q.Pop()->body).node, 1u);
  EXPECT_EQ(std::get<WakeupEvent>(q.Pop()->body).node, 3u);
  EXPECT_EQ(std::get<WakeupEvent>(q.Pop()->body).node, 5u);
  EXPECT_EQ(q.Pop(), nullptr);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (NodeId i = 0; i < 10; ++i) q.Push(Time::FromUnits(1), WakeupEvent{i});
  for (NodeId i = 0; i < 10; ++i) {
    EXPECT_EQ(std::get<WakeupEvent>(q.Pop()->body).node, i);
  }
}

TEST(EventQueue, PeekTimeMatchesNextPop) {
  EventQueue q;
  q.Push(Time::FromUnits(2), WakeupEvent{0});
  q.Push(Time::FromUnits(1), WakeupEvent{1});
  EXPECT_EQ(q.PeekTime(), Time::FromUnits(1));
}

TEST(EventQueueDeathTest, PeekTimeOnEmptyQueueChecks) {
  EventQueue q;
  EXPECT_DEATH(q.PeekTime(), "");
  // The precondition holds again once the queue refills and drains.
  q.Push(Time::FromUnits(1), WakeupEvent{0});
  q.Pop();
  EXPECT_DEATH(q.PeekTime(), "");
}

// The runtime's send path: one Touch, then the admission (or the sent
// count) through the handle.
Admission Send(LinkTable& links, NodeId from, NodeId to, Time at,
               const DelayDecision& d) {
  return links.AdmitWithFaults(links.Touch(from, to), from, to, at, d);
}
std::uint64_t SentCount(LinkTable& links, NodeId from, NodeId to) {
  return links.SentCount(links.Touch(from, to));
}

TEST(LinkTable, SimpleTransit) {
  LinkTable links(4);
  Time a = Send(links, 0, 1, Time::Zero(), {kUnit, kUnit}).arrival;
  EXPECT_EQ(a, Time::FromUnits(1));
  EXPECT_EQ(SentCount(links, 0, 1), 1u);
  EXPECT_EQ(SentCount(links, 1, 0), 0u);  // directions are independent
}

TEST(LinkTable, FifoNeverReorders) {
  LinkTable links(4);
  Time a1 = Send(links, 0, 1, Time::Zero(), {kUnit, Time::Zero()}).arrival;
  // Second message sent later but with a tiny transit: must not overtake.
  Time a2 = Send(links, 0, 1, Time::FromDouble(0.1),
                 {Time::FromDouble(0.05), Time::Zero()})
                .arrival;
  EXPECT_GE(a2, a1);
}

TEST(LinkTable, SpacingSerialisesABurst) {
  LinkTable links(4);
  // Ten messages at time 0 with transit 1, spacing 1: the i-th arrives
  // at time i+1 — the congestion behaviour behind the paper's Θ(N)
  // forwarding pathology.
  Time last = Time::Zero();
  for (int i = 0; i < 10; ++i) {
    last = Send(links, 0, 1, Time::Zero(), {kUnit, kUnit}).arrival;
    EXPECT_EQ(last, Time::FromUnits(i + 1));
  }
  EXPECT_EQ(links.MaxLinkLoad(), 10u);
}

TEST(LinkTable, ReverseDirectionUnaffectedByForwardLoad) {
  LinkTable links(4);
  for (int i = 0; i < 5; ++i) {
    Send(links, 0, 1, Time::Zero(), {kUnit, kUnit});
  }
  Time back = Send(links, 1, 0, Time::Zero(), {kUnit, kUnit}).arrival;
  EXPECT_EQ(back, Time::FromUnits(1));
}

TEST(LinkTable, InjectedLossCountsAsSentButNeverArrives) {
  LinkTable links(4);
  links.EnableFaults({/*loss=*/1.0, 0.0, 0.0}, /*seed=*/7);
  for (int i = 0; i < 20; ++i) {
    Admission a = Send(links, 0, 1, Time::Zero(), {kUnit, kUnit});
    EXPECT_TRUE(a.lost);
    EXPECT_FALSE(a.duplicate_arrival.has_value());
  }
  // Lost messages were sent (and paid for) but are never in flight, and
  // they leave the FIFO backlog untouched: with faults off, the next
  // message sent at time zero arrives at t=1, not behind twenty phantom
  // arrivals.
  EXPECT_EQ(SentCount(links, 0, 1), 20u);
  EXPECT_EQ(links.MaxLinkLoad(), 20u);
  EXPECT_EQ(links.MaxLinkInflight(), 0u);
  links.EnableFaults({0.0, 0.0, 0.0}, /*seed=*/7);
  EXPECT_EQ(Send(links, 0, 1, Time::Zero(), {kUnit, kUnit}).arrival,
            Time::FromUnits(1));
}

TEST(LinkTable, DuplicationPreservesFifoAndInflightAccounting) {
  LinkTable links(4);
  links.EnableFaults({0.0, /*duplicate=*/1.0, 0.0}, /*seed=*/7);
  Time prev = Time::Zero();
  for (int i = 0; i < 10; ++i) {
    Admission a = Send(links, 0, 1, Time::Zero(), {kUnit, kUnit});
    ASSERT_FALSE(a.lost);
    ASSERT_TRUE(a.duplicate_arrival.has_value());
    // The duplicate is one more FIFO-ordered message: it never overtakes
    // the original, and successive admissions never go backwards.
    EXPECT_GE(a.arrival, prev);
    EXPECT_GE(*a.duplicate_arrival, a.arrival);
    prev = *a.duplicate_arrival;
  }
  // Both copies of every message count against load and in-flight.
  EXPECT_EQ(SentCount(links, 0, 1), 20u);
  EXPECT_EQ(links.MaxLinkInflight(), 20u);
  // Delivering every copy drains the link exactly.
  for (int i = 0; i < 20; ++i) links.NotifyDelivered(0, 1);
}

TEST(LinkTable, FifoHoldsForDeliveredMessagesUnderMixedFaults) {
  // Loss and duplication together: whatever actually arrives must still
  // arrive in admission order (no reordering was enabled).
  LinkTable links(4);
  links.EnableFaults({/*loss=*/0.3, /*duplicate=*/0.3, 0.0}, /*seed=*/99);
  Rng delays(4242);
  Time prev = Time::Zero();
  std::uint64_t inflight = 0, delivered = 0, lost = 0;
  for (int i = 0; i < 500; ++i) {
    Time send = Time::FromTicks(i * 100);
    Time transit = Time::FromTicks(
        1 + static_cast<std::int64_t>(delays.NextBelow(Time::kTicksPerUnit)));
    Admission a = Send(links, 0, 1, send, {transit, Time::Zero()});
    if (a.lost) {
      ++lost;
      continue;
    }
    EXPECT_GE(a.arrival, prev);
    prev = a.arrival;
    ++inflight;
    if (a.duplicate_arrival) {
      EXPECT_GE(*a.duplicate_arrival, prev);
      prev = *a.duplicate_arrival;
      ++inflight;
    }
  }
  EXPECT_GT(lost, 0u);
  EXPECT_GT(inflight, 0u);
  EXPECT_LE(links.MaxLinkInflight(), inflight);
  // Every non-lost copy can be delivered; the CHECK inside
  // NotifyDelivered would fire if loss had corrupted the accounting.
  for (; delivered < inflight; ++delivered) links.NotifyDelivered(0, 1);
}

TEST(LinkTable, ReorderedMessageOvertakesBacklogWithinDelayBound) {
  {
    // An empty link has nothing to overtake: even at rate 1.0 the first
    // message is delivered in order.
    LinkTable empty(4);
    empty.EnableFaults({0.0, 0.0, /*reorder=*/1.0}, /*seed=*/3);
    EXPECT_FALSE(Send(empty, 0, 1, Time::Zero(), {kUnit, kUnit}).reordered);
  }
  LinkTable links(4);
  // Build a backlog fault-free: five unit-spaced messages, last at t=5.
  Time last = Time::Zero();
  for (int i = 0; i < 5; ++i) {
    last = Send(links, 0, 1, Time::Zero(), {kUnit, kUnit}).arrival;
  }
  EXPECT_EQ(last, Time::FromUnits(5));
  links.EnableFaults({0.0, 0.0, /*reorder=*/1.0}, /*seed=*/3);
  // The next message overtakes the backlog but still respects the
  // one-unit transit bound...
  Admission a =
      Send(links, 0, 1, Time::FromUnits(1), {Time::FromDouble(0.25), kUnit});
  EXPECT_TRUE(a.reordered);
  EXPECT_EQ(a.arrival, Time::FromUnits(1) + Time::FromDouble(0.25));
  // ...and the FIFO baseline never moves backwards: with faults off, an
  // unspaced message sent at the same time queues behind t=5.
  links.EnableFaults({0.0, 0.0, 0.0}, /*seed=*/3);
  EXPECT_EQ(Send(links, 0, 1, Time::FromUnits(1),
                 {Time::FromDouble(0.25), Time::Zero()})
                .arrival,
            Time::FromUnits(5));
}

TEST(LinkTable, ZeroRatesAreBitIdenticalToBaseline) {
  LinkTable plain(4), faulty(4);
  faulty.EnableFaults({0.0, 0.0, 0.0}, /*seed=*/1);  // Any() == false
  Rng delays(77);
  for (int i = 0; i < 200; ++i) {
    Time send = Time::FromTicks(i * 333);
    Time transit = Time::FromTicks(
        1 + static_cast<std::int64_t>(delays.NextBelow(Time::kTicksPerUnit)));
    DelayDecision d{transit, Time::Zero()};
    Admission a = Send(faulty, 0, 1, send, d);
    EXPECT_EQ(a.arrival, Send(plain, 0, 1, send, d).arrival);
    EXPECT_FALSE(a.lost);
    EXPECT_FALSE(a.reordered);
  }
}

TEST(DelayModel, UnitIsWorstCasePipe) {
  UnitDelayModel m;
  auto d = m.Decide({0, 1, Time::Zero(), 0, nullptr});
  EXPECT_EQ(d.transit, kUnit);
  EXPECT_EQ(d.spacing, kUnit);
}

TEST(DelayModel, EagerIsMinimal) {
  EagerDelayModel m;
  auto d = m.Decide({0, 1, Time::Zero(), 0, nullptr});
  EXPECT_EQ(d.transit, Time::Tick());
  EXPECT_EQ(d.spacing, Time::Zero());
}

TEST(DelayModel, RandomStaysWithinModelBounds) {
  RandomDelayModel m(1234);
  for (int i = 0; i < 2000; ++i) {
    auto d = m.Decide({0, 1, Time::Zero(), 0, nullptr});
    EXPECT_GT(d.transit, Time::Zero());
    EXPECT_LE(d.transit, kUnit);
    EXPECT_GE(d.spacing, Time::Zero());
    EXPECT_LE(d.spacing, kUnit);
  }
}

TEST(DelayModel, FunctionModelIsScriptable) {
  FunctionDelayModel m([](const MessageInfo& info) {
    return DelayDecision{info.from == 0 ? kUnit : Time::Tick(),
                         Time::Zero()};
  });
  EXPECT_EQ(m.Decide({0, 1, Time::Zero(), 0, nullptr}).transit, kUnit);
  EXPECT_EQ(m.Decide({2, 1, Time::Zero(), 0, nullptr}).transit,
            Time::Tick());
}

TEST(WakeupPlan, AllAtZeroCoversEveryNode) {
  auto plan = WakeAllAtZero(8);
  EXPECT_EQ(plan.base_count(), 8u);
  EXPECT_EQ(plan.LastWakeup(), Time::Zero());
}

TEST(WakeupPlan, StaggeredChainSpacing) {
  auto plan = WakeStaggeredChain(4, Time::FromDouble(0.9));
  ASSERT_EQ(plan.wakeups.size(), 4u);
  EXPECT_EQ(plan.wakeups[0].second, Time::Zero());
  EXPECT_NEAR(plan.wakeups[3].second.ToDouble(), 2.7, 1e-5);
}

TEST(WakeupPlan, RandomSubsetRespectsCountAndWindow) {
  Rng rng(5);
  auto plan = WakeRandomSubset(100, 10, Time::FromUnits(3), rng);
  EXPECT_EQ(plan.base_count(), 10u);
  for (const auto& [node, at] : plan.wakeups) {
    EXPECT_LT(node, 100u);
    EXPECT_LE(at, Time::FromUnits(3));
  }
}

TEST(Identities, AscendingAndRandomAreUniquePermutations) {
  auto asc = IdentitiesAscending(50);
  EXPECT_EQ(asc.front(), 1);
  EXPECT_EQ(asc.back(), 50);
  Rng rng(7);
  auto rnd = IdentitiesRandom(50, rng);
  std::set<Id> s(rnd.begin(), rnd.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.begin(), 1);
  EXPECT_EQ(*s.rbegin(), 50);
}

TEST(Identities, SparseAreStrictlyUnique) {
  Rng rng(11);
  auto ids = IdentitiesSparse(200, rng);
  std::set<Id> s(ids.begin(), ids.end());
  EXPECT_EQ(s.size(), 200u);
}

}  // namespace
}  // namespace celect::sim
