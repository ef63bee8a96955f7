// Fault injection end to end: crash triggers, timers, drop-cause
// accounting, fault-plan validation, and the deterministic chaos
// harness (same seed -> bit-identical run).
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "celect/harness/chaos.h"
#include "celect/harness/experiment.h"
#include "celect/proto/nosod/fault_tolerant.h"
#include "celect/sim/network.h"
#include "celect/sim/runtime.h"

namespace celect::sim {
namespace {

constexpr std::uint16_t kPing = 1;
constexpr std::uint16_t kPong = 2;

// Node 0 pings everyone; everyone pongs back; node 0 declares when all
// pongs arrive. Deterministic enough to assert exact message counts
// under every crash trigger.
class PingPong : public Process {
 public:
  explicit PingPong(const ProcessInit& init) : n_(init.n) {}

  void OnWakeup(Context& ctx) override {
    ctx.SendAll(wire::Packet{kPing, {ctx.id()}});
  }

  void OnMessage(Context& ctx, Port from_port,
                 const wire::Packet& p) override {
    if (p.type == kPing) {
      ctx.Send(from_port, wire::Packet{kPong, {}});
    } else if (++pongs_ == n_ - 1) {
      ctx.DeclareLeader();
    }
  }

 private:
  std::uint32_t n_;
  std::uint32_t pongs_ = 0;
};

ProcessFactory PingPongFactory() {
  return [](const ProcessInit& init) {
    return std::make_unique<PingPong>(init);
  };
}

NetworkConfig BasicConfig(std::uint32_t n) {
  NetworkConfig c;
  c.n = n;
  c.mapper = MakeSodMapper(n);
  c.delays = MakeUnitDelay();
  c.wakeup = WakeSingle(n, 0);
  return c;
}

TEST(FaultInjection, TimedCrashSilencesNodeMidRun) {
  NetworkConfig c = BasicConfig(6);
  CrashSpec spec;
  spec.node = 3;
  spec.trigger = CrashSpec::Trigger::kAtTime;
  spec.at = Time::FromDouble(0.5);  // after the pings left, before arrival
  c.faults.crashes.push_back(spec);
  Runtime rt(std::move(c), PingPongFactory());
  auto r = rt.Run();
  // Node 3's ping arrives at t=1 into a dead node: one drop, one missing
  // pong, no declaration.
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.leader_declarations, 0u);
  EXPECT_EQ(r.total_messages, 5u + 4u);
  EXPECT_EQ(r.counters.at("sim.dropped_to_crashed"), 1);
  EXPECT_TRUE(rt.failed()[3]);
}

TEST(FaultInjection, AfterSendsCrashSwallowsRestOfHandler) {
  NetworkConfig c = BasicConfig(6);
  CrashSpec spec;
  spec.node = 0;
  spec.trigger = CrashSpec::Trigger::kAfterSends;
  spec.count = 2;
  c.faults.crashes.push_back(spec);
  Runtime rt(std::move(c), PingPongFactory());
  auto r = rt.Run();
  // Node 0 dies mid-SendAll: the first two pings go out (they left
  // before the crash), the remaining three vanish unsent. Two pongs come
  // back to a dead node and drop.
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.messages_by_type.at(kPing), 2u);
  EXPECT_EQ(r.messages_by_type.at(kPong), 2u);
  EXPECT_EQ(r.counters.at("sim.dropped_to_crashed"), 2);
  EXPECT_EQ(r.leader_declarations, 0u);
}

TEST(FaultInjection, AfterReceivesCrashProcessesThenDies) {
  NetworkConfig c = BasicConfig(6);
  CrashSpec spec;
  spec.node = 0;
  spec.trigger = CrashSpec::Trigger::kAfterReceives;
  spec.count = 3;
  c.faults.crashes.push_back(spec);
  Runtime rt(std::move(c), PingPongFactory());
  auto r = rt.Run();
  // All five pings and pongs are sent; node 0 processes pongs 1-3 (the
  // third is delivered, then the node dies) and drops pongs 4-5.
  EXPECT_EQ(r.messages_by_type.at(kPing), 5u);
  EXPECT_EQ(r.messages_by_type.at(kPong), 5u);
  EXPECT_EQ(r.counters.at("sim.dropped_to_crashed"), 2);
  EXPECT_EQ(r.leader_declarations, 0u);
}

TEST(FaultInjection, OnMessageTypeCrashDiesWithMessageUnread) {
  NetworkConfig c = BasicConfig(6);
  CrashSpec spec;
  spec.node = 4;
  spec.trigger = CrashSpec::Trigger::kOnMessageType;
  spec.message_type = kPing;
  c.faults.crashes.push_back(spec);
  Runtime rt(std::move(c), PingPongFactory());
  auto r = rt.Run();
  // Node 4 dies on its ping *instead of* processing it: no pong from it,
  // and the ping counts as a drop, not a delivery.
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.messages_by_type.at(kPong), 4u);
  EXPECT_EQ(r.counters.at("sim.dropped_to_crashed"), 1);
  EXPECT_EQ(r.leader_declarations, 0u);
}

TEST(FaultInjection, InjectedLossIsCountedSeparatelyFromCrashDrops) {
  NetworkConfig c = BasicConfig(8);
  c.faults.link.loss = 1.0;  // every message vanishes in transit
  c.faults.seed = 11;
  Runtime rt(std::move(c), PingPongFactory());
  auto r = rt.Run();
  EXPECT_EQ(r.messages_lost, 7u);  // the 7 pings; no pong is ever sent
  EXPECT_EQ(r.counters.at("sim.dropped_to_loss"), 7);
  EXPECT_EQ(r.counters.count("sim.dropped_to_crashed"), 0u);
  EXPECT_EQ(r.leader_declarations, 0u);
}

TEST(FaultInjection, DuplicationDeliversACopyWithoutReordering) {
  NetworkConfig c = BasicConfig(4);
  c.faults.link.duplicate = 1.0;
  c.faults.seed = 11;
  Runtime rt(std::move(c), PingPongFactory());
  auto r = rt.Run();
  // Every message is doubled; PingPong's pong counter over-counts and it
  // still declares (idempotence is the protocol's business — the FT
  // engine is tested for that separately).
  EXPECT_EQ(r.messages_duplicated, r.total_messages);
  EXPECT_GE(r.leader_declarations, 1u);
}

// --- timers -----------------------------------------------------------

constexpr std::uint16_t kEcho = 3;

// Arms a watchdog on wakeup; if the echo comes back first the watchdog
// is cancelled, otherwise the watchdog declares.
class TimerProcess : public Process {
 public:
  explicit TimerProcess(bool responsive) : responsive_(responsive) {}

  void OnWakeup(Context& ctx) override {
    watchdog_ = ctx.SetTimer(Time::FromUnits(5));
    ctx.Send(1, wire::Packet{kEcho, {}});
  }

  void OnMessage(Context& ctx, Port from_port,
                 const wire::Packet& p) override {
    if (ctx.address() != 0) {
      if (responsive_) ctx.Send(from_port, p);
      return;
    }
    ctx.CancelTimer(watchdog_);
    ctx.DeclareLeader();
  }

  void OnTimer(Context& ctx, TimerId timer) override {
    if (timer == watchdog_) ctx.DeclareLeader();
  }

 private:
  bool responsive_;
  TimerId watchdog_ = kInvalidTimer;
};

TEST(FaultInjection, TimerFiresWhenNoAnswerArrives) {
  NetworkConfig c = BasicConfig(3);
  Runtime rt(std::move(c), [](const ProcessInit&) {
    return std::make_unique<TimerProcess>(/*responsive=*/false);
  });
  auto r = rt.Run();
  EXPECT_EQ(r.timers_set, 1u);
  EXPECT_EQ(r.timers_fired, 1u);
  EXPECT_EQ(r.leader_declarations, 1u);
  EXPECT_DOUBLE_EQ(r.leader_time.ToDouble(), 5.0);
}

TEST(FaultInjection, CancelledTimerNeverFiresNorStretchesTheClock) {
  NetworkConfig c = BasicConfig(3);
  Runtime rt(std::move(c), [](const ProcessInit&) {
    return std::make_unique<TimerProcess>(/*responsive=*/true);
  });
  auto r = rt.Run();
  EXPECT_EQ(r.timers_set, 1u);
  EXPECT_EQ(r.timers_fired, 0u);
  EXPECT_EQ(r.leader_declarations, 1u);
  // The echo round-trip finishes at t=2; the cancelled t=5 watchdog must
  // not drag quiescence out to its deadline.
  EXPECT_DOUBLE_EQ(r.quiesce_time.ToDouble(), 2.0);
}

TEST(FaultInjection, TimersDieWithTheirNode) {
  NetworkConfig c = BasicConfig(3);
  CrashSpec spec;
  spec.node = 0;
  spec.trigger = CrashSpec::Trigger::kAtTime;
  spec.at = Time::FromUnits(3);  // after arming, before the t=5 deadline
  c.faults.crashes.push_back(spec);
  Runtime rt(std::move(c), [](const ProcessInit&) {
    return std::make_unique<TimerProcess>(/*responsive=*/false);
  });
  auto r = rt.Run();
  EXPECT_EQ(r.timers_set, 1u);
  EXPECT_EQ(r.timers_fired, 0u);
  EXPECT_EQ(r.leader_declarations, 0u);
}

// --- validation -------------------------------------------------------

TEST(FaultInjection, MidRunCrashVictimMayBeABaseNode) {
  // The distinction documented in network.h: node 0 is the only base
  // node AND the crash victim — legal, it lived before it died. (An
  // *initially*-failed base node is rejected by ValidateConfig.)
  NetworkConfig c = BasicConfig(4);
  CrashSpec spec;
  spec.node = 0;
  spec.trigger = CrashSpec::Trigger::kAfterSends;
  c.faults.crashes.push_back(spec);
  ValidateConfig(c);  // must not CHECK-fail
  Runtime rt(std::move(c), PingPongFactory());
  EXPECT_EQ(rt.Run().faults_injected, 1u);
}

TEST(FaultInjectionDeathTest, RejectsDuplicateIdentities) {
  NetworkConfig c = BasicConfig(4);
  c.identities = {5, 9, 7, 1};
  ValidateConfig(c);  // distinct: must not CHECK-fail
  c.identities = {5, 9, 7, 9};
  EXPECT_DEATH(ValidateConfig(c), "duplicate identity 9");
}

TEST(FaultInjectionDeathTest, RejectsOutOfRangeVictim) {
  FaultPlan plan;
  plan.crashes.push_back(CrashSpec{.node = 9});
  EXPECT_DEATH(ValidateFaultPlan(plan, 4), "");
}

TEST(FaultInjectionDeathTest, RejectsRatesOutsideUnitInterval) {
  FaultPlan plan;
  plan.link.loss = 1.5;
  EXPECT_DEATH(ValidateFaultPlan(plan, 4), "");
}

TEST(FaultInjectionDeathTest, RejectsZeroCountTrigger) {
  FaultPlan plan;
  CrashSpec spec;
  spec.trigger = CrashSpec::Trigger::kAfterSends;
  spec.count = 0;
  plan.crashes.push_back(spec);
  EXPECT_DEATH(ValidateFaultPlan(plan, 4), "");
}

}  // namespace
}  // namespace celect::sim

// --- chaos harness ----------------------------------------------------

namespace celect::harness {
namespace {

using proto::nosod::MakeFaultTolerant;

TEST(ChaosHarness, SameSeedIsBitReproducible) {
  ChaosOptions opt;
  opt.n = 16;
  opt.max_crashes = 2;
  opt.loss = 0.02;
  opt.duplicate = 0.02;
  for (std::uint64_t seed : {1ull, 77ull, 4096ull}) {
    auto a = RunChaosCase(MakeFaultTolerant(2), seed, opt);
    auto b = RunChaosCase(MakeFaultTolerant(2), seed, opt);
    EXPECT_EQ(FingerprintResult(a.result), FingerprintResult(b.result))
        << "seed=" << seed;
    EXPECT_EQ(a.violation, b.violation);
    EXPECT_EQ(a.failed_after, b.failed_after);
  }
}

TEST(ChaosHarness, DifferentSeedsProduceDifferentPlans) {
  ChaosOptions opt;
  opt.max_crashes = 3;
  auto p1 = MakeChaosPlan(1, opt);
  auto p2 = MakeChaosPlan(2, opt);
  ASSERT_EQ(p1.crashes.size(), 3u);
  bool differ = false;
  for (std::size_t i = 0; i < 3; ++i) {
    differ = differ || p1.crashes[i].node != p2.crashes[i].node ||
             p1.crashes[i].trigger != p2.crashes[i].trigger;
  }
  EXPECT_TRUE(differ);
}

TEST(ChaosHarness, FaultFreePlanMatchesPlainRun) {
  // A chaos case with zero crashes and zero link rates is the baseline
  // run: the fault machinery must not perturb the schedule.
  ChaosOptions opt;
  opt.n = 12;
  opt.max_crashes = 0;
  auto chaos = RunChaosCase(MakeFaultTolerant(2), /*seed=*/5, opt);
  RunOptions ro;
  ro.n = 12;
  ro.seed = 5;
  ro.mapper = opt.mapper;
  ro.delay = opt.delay;
  auto plain = RunElection(MakeFaultTolerant(2), ro);
  EXPECT_EQ(FingerprintResult(chaos.result), FingerprintResult(plain));
  EXPECT_TRUE(chaos.violation.empty()) << chaos.violation;
}

TEST(ChaosHarness, RegistrySweepHoldsSafetyUnderCrashesAndLoss) {
  auto report = SweepRegistryChaos(/*seed0=*/9000, /*seeds_per_protocol=*/3,
                                   /*n=*/16);
  EXPECT_GT(report.cases, 0u);
  for (const auto& v : report.violations) {
    ADD_FAILURE() << v.protocol << " seed=" << v.seed << ": " << v.violation;
  }
}

}  // namespace
}  // namespace celect::harness
