// Churn: the continuous election service under crash/rejoin cycling.
// Covers the FaultPlan churn-ordering validation, the seeded churn
// harness (bit-reproducibility, thread-count invariance, safety and
// liveness of the lease layer), and exhaustive exploration of the
// at-most-one-lease-holder invariant at N = 3 with one crash + rejoin.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <set>

#include "celect/analysis/explorer.h"
#include "celect/analysis/invariants.h"
#include "celect/harness/churn.h"
#include "celect/harness/experiment.h"
#include "celect/proto/nosod/lease_engine.h"
#include "celect/sim/fault.h"
#include "celect/sim/runtime.h"

// --- ValidateFaultPlan: churn ordering rules --------------------------

namespace celect::sim {
namespace {

CrashSpec TimedCrash(NodeId node, std::int64_t units) {
  CrashSpec spec;
  spec.node = node;
  spec.trigger = CrashSpec::Trigger::kAtTime;
  spec.at = Time::FromUnits(units);
  return spec;
}

TEST(ChurnPlanDeathTest, RejectsARejoinAtTheInstantOfACrash) {
  // Rule 1: tie-breaking "did it come back?" by schedule order would
  // make the plan's meaning depend on construction order.
  FaultPlan plan;
  plan.crashes.push_back(TimedCrash(1, 2));
  plan.rejoins.push_back({1, Time::FromUnits(2)});
  EXPECT_DEATH(ValidateFaultPlan(plan, 4), "");
}

TEST(ChurnPlanDeathTest, RejectsTwoRejoinsWithoutAnInterveningCrash) {
  // Rule 2: the second rejoin can never fire.
  FaultPlan plan;
  plan.crashes.push_back(TimedCrash(1, 1));
  plan.rejoins.push_back({1, Time::FromUnits(2)});
  plan.rejoins.push_back({1, Time::FromUnits(3)});
  EXPECT_DEATH(ValidateFaultPlan(plan, 4), "");
}

TEST(ChurnPlanDeathTest, RejectsTwoTimedCrashesWithoutAnInterveningRejoin) {
  // Rule 2 again: the second crash is dead-on-arrival. Only enforced
  // for nodes with rejoins — crash-only plans predate churn and allow
  // redundant specs.
  FaultPlan plan;
  plan.crashes.push_back(TimedCrash(1, 1));
  plan.crashes.push_back(TimedCrash(1, 2));
  plan.rejoins.push_back({1, Time::FromUnits(3)});
  EXPECT_DEATH(ValidateFaultPlan(plan, 4), "");
}

TEST(ChurnPlanDeathTest, RejectsALeadingRejoinWithoutATriggeredCrash) {
  // Rule 3: nothing could have killed the node before its first timed
  // event, so the rejoin would always no-op.
  FaultPlan plan;
  plan.rejoins.push_back({1, Time::FromUnits(1)});
  EXPECT_DEATH(ValidateFaultPlan(plan, 4), "");
}

TEST(ChurnPlan, LeadingRejoinIsLegalWithATriggeredCrash) {
  // A count-triggered crash plausibly fired before the rejoin time.
  FaultPlan plan;
  CrashSpec spec;
  spec.node = 1;
  spec.trigger = CrashSpec::Trigger::kAfterSends;
  spec.count = 2;
  plan.crashes.push_back(spec);
  plan.rejoins.push_back({1, Time::FromUnits(1)});
  ValidateFaultPlan(plan, 4);  // must not CHECK-fail
}

TEST(ChurnPlan, AlternatingCycleIsLegal) {
  FaultPlan plan;
  plan.crashes.push_back(TimedCrash(2, 1));
  plan.rejoins.push_back({2, Time::FromUnits(2)});
  plan.crashes.push_back(TimedCrash(2, 3));
  plan.rejoins.push_back({2, Time::FromUnits(4)});
  ValidateFaultPlan(plan, 4);  // must not CHECK-fail
}

}  // namespace
}  // namespace celect::sim

// --- The churn harness ------------------------------------------------

namespace celect::harness {
namespace {

TEST(ChurnPlan, SeededPlanIsDeterministicAndWellFormed) {
  ChurnOptions opt;
  opt.n = 16;
  opt.churn_nodes = 4;
  for (std::uint64_t seed : {1ull, 9ull, 333ull}) {
    const sim::FaultPlan a = MakeChurnPlan(seed, opt);
    const sim::FaultPlan b = MakeChurnPlan(seed, opt);
    ASSERT_EQ(a.crashes.size(), b.crashes.size());
    for (std::size_t i = 0; i < a.crashes.size(); ++i) {
      EXPECT_EQ(a.crashes[i].node, b.crashes[i].node);
      EXPECT_EQ(a.crashes[i].at, b.crashes[i].at);
    }
    ASSERT_EQ(a.rejoins.size(), b.rejoins.size());
    for (std::size_t i = 0; i < a.rejoins.size(); ++i) {
      EXPECT_EQ(a.rejoins[i].node, b.rejoins[i].node);
      EXPECT_EQ(a.rejoins[i].at, b.rejoins[i].at);
    }
    // Exactly the shape ValidateFaultPlan admits (it CHECK-fails
    // otherwise), cycling the requested number of distinct victims.
    sim::ValidateFaultPlan(a, opt.n);
    std::set<sim::NodeId> victims;
    for (const auto& crash : a.crashes) victims.insert(crash.node);
    EXPECT_EQ(victims.size(), opt.churn_nodes);
  }
}

TEST(ChurnHarness, SameSeedIsBitReproducible) {
  ChurnOptions opt;
  opt.n = 12;
  opt.churn_nodes = 3;
  opt.loss = 0.02;
  opt.lease.horizon = sim::Time::FromUnits(30);
  opt.lease.max_renewals = 2;
  for (std::uint64_t seed : {1ull, 42ull, 512ull}) {
    const ChurnCaseResult a = RunChurnCase(seed, opt);
    const ChurnCaseResult b = RunChurnCase(seed, opt);
    EXPECT_EQ(FingerprintResult(a.result), FingerprintResult(b.result))
        << "seed=" << seed;
    EXPECT_EQ(a.violation, b.violation);
    EXPECT_EQ(a.unavailable_ticks, b.unavailable_ticks);
    EXPECT_EQ(a.elections_completed, b.elections_completed);
    EXPECT_EQ(a.failed_after, b.failed_after);
  }
}

TEST(ChurnHarness, SweepIsThreadCountInvariant) {
  ChurnOptions opt;
  opt.n = 12;
  opt.churn_nodes = 3;
  opt.lease.horizon = sim::Time::FromUnits(20);
  opt.lease.max_renewals = 2;

  opt.threads = 1;
  const ChurnSweepResult serial = SweepChurn(100, 6, opt);
  opt.threads = 4;
  const ChurnSweepResult parallel = SweepChurn(100, 6, opt);

  EXPECT_EQ(serial.crashes_injected, parallel.crashes_injected);
  EXPECT_EQ(serial.rejoins, parallel.rejoins);
  EXPECT_EQ(serial.elections_completed, parallel.elections_completed);
  EXPECT_EQ(serial.unavailable_ticks, parallel.unavailable_ticks);
  EXPECT_EQ(serial.leases_granted, parallel.leases_granted);
  EXPECT_EQ(serial.leases_renewed, parallel.leases_renewed);
  EXPECT_EQ(serial.leases_expired, parallel.leases_expired);
  EXPECT_EQ(serial.leases_revoked, parallel.leases_revoked);
  EXPECT_EQ(serial.events_processed, parallel.events_processed);
  EXPECT_EQ(serial.messages.mean(), parallel.messages.mean());
  EXPECT_EQ(serial.telemetry, parallel.telemetry);
  ASSERT_EQ(serial.violations.size(), parallel.violations.size());
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    EXPECT_EQ(serial.violations[i].seed, parallel.violations[i].seed);
    EXPECT_EQ(serial.violations[i].violation,
              parallel.violations[i].violation);
  }
}

TEST(ChurnHarness, ServiceStaysSafeAndLiveUnderChurn) {
  ChurnOptions opt;
  opt.n = 16;
  opt.churn_nodes = 4;
  opt.loss = 0.01;
  opt.lease.horizon = sim::Time::FromUnits(60);
  opt.lease.max_renewals = 2;
  const ChurnCaseResult c = RunChurnCase(3, opt);
  EXPECT_TRUE(c.violation.empty()) << c.violation;
  // Back-to-back re-elections actually happened, through real churn.
  EXPECT_GE(c.elections_completed, 3u);
  const auto counter = [&c](const char* key) -> std::int64_t {
    const auto it = c.result.counters.find(key);
    return it == c.result.counters.end() ? 0 : it->second;
  };
  EXPECT_GT(counter("lease.granted"), 0);
  EXPECT_GT(counter("sim.rejoins"), 0);
  // The service was obtainable for part of the window but not all of
  // it (elections take time), and the two measures agree on bounds.
  EXPECT_GT(c.unavailable_ticks, 0);
  EXPECT_LT(c.unavailable_ticks, opt.lease.horizon.ticks());
  // The latency histogram carries one sample per completed election.
  EXPECT_EQ(c.election_latency.count(), c.elections_completed);
}

TEST(ChurnHarness, ChurnFreeServiceRenewsAndStepsDown) {
  // churn_nodes = 0 degenerates to an empty FaultPlan: the service just
  // grants, renews, voluntarily steps down, and re-elects until the
  // horizon — every reign ends in a revocation or the final expiry.
  ChurnOptions opt;
  opt.n = 8;
  opt.churn_nodes = 0;
  opt.lease.horizon = sim::Time::FromUnits(30);
  opt.lease.max_renewals = 2;
  const ChurnCaseResult c = RunChurnCase(5, opt);
  EXPECT_TRUE(c.violation.empty()) << c.violation;
  const auto counter = [&c](const char* key) -> std::int64_t {
    const auto it = c.result.counters.find(key);
    return it == c.result.counters.end() ? 0 : it->second;
  };
  EXPECT_GE(counter("lease.granted"), 2);
  EXPECT_GE(counter("lease.renewed"), 4);
  EXPECT_GE(counter("lease.revoked"), 1);
  // One closed coverage gap per reign: the gap before each grant.
  EXPECT_EQ(c.elections_completed,
            static_cast<std::uint64_t>(counter("lease.granted")));
  EXPECT_EQ(counter("sim.rejoins"), 0);
}

TEST(ChurnHarness, EffectiveLeaseParamsDeriveAFailureBudget) {
  ChurnOptions opt;
  opt.n = 16;
  opt.churn_nodes = 4;
  EXPECT_EQ(EffectiveLeaseParams(opt).f, 4u);
  // Capped at the FT engine's tolerance ceiling 2f < n - 1.
  opt.n = 8;
  opt.churn_nodes = 6;
  EXPECT_EQ(EffectiveLeaseParams(opt).f, 3u);
  // An explicit budget wins.
  opt.lease.f = 2;
  EXPECT_EQ(EffectiveLeaseParams(opt).f, 2u);
  // No churn, no derived budget.
  opt.lease.f = 0;
  opt.churn_nodes = 0;
  EXPECT_EQ(EffectiveLeaseParams(opt).f, 0u);
}

}  // namespace
}  // namespace celect::harness

// --- Exhaustive exploration: at most one lease holder -----------------

namespace celect::analysis {
namespace {

// N = 3, one base node, one timed crash + rejoin of node 0 early in the
// window. The lease timings put the nominate fuse inside the horizon
// but the first watchdog and renew timers outside it, so the space is
// one election + acquisition + the churn events — small enough to
// exhaust, rich enough that schedules exist where the crash lands
// mid-election, the rejoin outruns the crash (and legally no-ops), or
// the grant quorum races the expiry.
proto::nosod::LeaseParams ExploredLeaseParams() {
  proto::nosod::LeaseParams lease;
  lease.election_timeout = sim::Time::FromUnits(8);
  lease.lease_duration = sim::Time::FromUnits(8);
  lease.renew_interval = sim::Time::FromUnits(4);
  lease.horizon = sim::Time::FromUnits(8);
  return lease;
}

ConfigFactory ChurnedTriangle() {
  return [] {
    harness::RunOptions o;
    o.n = 3;
    o.seed = 7;
    o.mapper = harness::MapperKind::kRandom;
    o.wakeup = harness::WakeupKind::kRandomSubset;
    o.wakeup_count = 1;
    sim::FaultPlan plan;
    sim::CrashSpec spec;
    spec.node = 0;
    spec.trigger = sim::CrashSpec::Trigger::kAtTime;
    spec.at = sim::Time::FromTicks(2 * sim::Time::kTicksPerUnit / 5);
    plan.crashes.push_back(spec);
    plan.rejoins.push_back(
        {0, sim::Time::FromTicks(9 * sim::Time::kTicksPerUnit / 10)});
    o.fault_plan = plan;
    return harness::BuildNetwork(o);
  };
}

TEST(ChurnExplorer, EveryScheduleKeepsAtMostOneLeaseHolder) {
  ExplorerOptions opt;
  opt.invariants.unique_leader = false;  // the service re-elects by design
  ExploreResult res = Explore(proto::nosod::MakeLeaseEngine(ExploredLeaseParams()),
                              ChurnedTriangle(), opt);
  ASSERT_TRUE(res.ok()) << "schedule " << res.counterexample->schedule << ": "
                        << res.counterexample->violations[0];
  // A proof, not a sample — and of a real state space.
  EXPECT_FALSE(res.stats.budget_exhausted);
  EXPECT_GT(res.stats.schedules, 100u);
  EXPECT_GT(res.stats.branch_points, 0u);
  std::cout << "[ explored ] lease engine N=3 crash+rejoin: "
            << res.stats.schedules << " maximal schedules, "
            << res.stats.events << " events\n";
}

TEST(ChurnExplorer, ExploredConfigIsNotVacuous) {
  // The time-ordered seeded run of the exact explored configuration
  // grants a lease, revives the crashed node, and lets the final lease
  // expire — so the exploration above quantified over schedules where
  // the invariant has something to say.
  sim::Runtime runtime(ChurnedTriangle()(),
                       proto::nosod::MakeLeaseEngine(ExploredLeaseParams()));
  const sim::RunResult r = runtime.Run();
  const auto counter = [&r](const char* key) -> std::int64_t {
    const auto it = r.counters.find(key);
    return it == r.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(counter("lease.granted"), 1);
  EXPECT_EQ(counter("sim.rejoins"), 1);
  EXPECT_EQ(counter("lease.expired"), 1);
  EXPECT_EQ(r.leader_declarations, 1u);
}

}  // namespace
}  // namespace celect::analysis
