// Tests for the analysis layer: systematic interleaving exploration
// (tentpole) and the invariant registry it checks along the way.
#include <gtest/gtest.h>

#include <iostream>
#include <memory>

#include "celect/analysis/explorer.h"
#include "celect/analysis/invariants.h"
#include "celect/harness/chaos.h"
#include "celect/harness/experiment.h"
#include "celect/proto/common.h"
#include "celect/proto/nosod/protocol_d.h"
#include "celect/proto/nosod/protocol_e.h"

namespace celect::analysis {
namespace {

// Every node is a base node waking at time 0; identities ascend. Fixed
// seed keeps the factory deterministic — a hard requirement of the
// explorer. `bases` > 0 restricts the base set (fewer concurrent
// candidates keeps the trace space exhaustible at N=4).
ConfigFactory SmallNetwork(std::uint32_t n, std::uint32_t bases = 0) {
  return [n, bases] {
    harness::RunOptions o;
    o.n = n;
    o.seed = 7;
    o.mapper = harness::MapperKind::kRandom;
    if (bases > 0) {
      o.wakeup = harness::WakeupKind::kRandomSubset;
      o.wakeup_count = bases;
    }
    return harness::BuildNetwork(o);
  };
}

// Everything the paper guarantees over *arbitrary* schedules: unique
// leader, monotone per-node progress, message conservation, termination
// at quiescence. leader_is_max_id stays off — the explorer itself shows
// it is not schedule-invariant: a delivery may legally outrace a
// spontaneous wakeup, barring the max-id node from candidacy (and the
// (level, id) contests of the capture protocols can out-level the max id
// regardless).
InvariantOptions ExploreInvariants() {
  InvariantOptions io;
  io.unique_leader = true;
  io.leader_is_max_id = false;
  io.monotone_observables = true;
  io.message_conservation = true;
  io.quiescence_termination = true;
  return io;
}

// ---- Exhaustive exploration of the paper's protocols -----------------

// N=4 runs restrict to two base nodes: with four concurrent broadcasters
// the Mazurkiewicz-trace count exceeds any practical budget, and two
// candidates already cover every contested race (capture vs. capture,
// delivery vs. wakeup).
struct ExhaustiveCase {
  const char* protocol;
  std::uint32_t n;
  std::uint32_t bases;  // 0 = every node
};

// --gtest_list_tests prints the parameter into each test's name; the
// default printer would print the protocol string's address, which ASLR
// changes from build to build.
void PrintTo(const ExhaustiveCase& c, std::ostream* os) {
  *os << c.protocol << ',' << c.n << ',' << c.bases;
}

class ExhaustiveTest : public ::testing::TestWithParam<ExhaustiveCase> {
 protected:
  static sim::ProcessFactory Factory(const std::string& name) {
    if (name == "D") return proto::nosod::MakeProtocolD();
    return proto::nosod::MakeProtocolE();
  }
};

TEST_P(ExhaustiveTest, AllSchedulesSatisfyEveryInvariant) {
  const auto& [name, n, bases] = GetParam();
  ExplorerOptions opt;
  opt.invariants = ExploreInvariants();
  ExploreResult res = Explore(Factory(name), SmallNetwork(n, bases), opt);
  ASSERT_TRUE(res.ok()) << "schedule " << res.counterexample->schedule
                        << ": " << res.counterexample->violations[0];
  EXPECT_FALSE(res.stats.budget_exhausted);
  // A real state space was walked, not a single trace.
  EXPECT_GT(res.stats.schedules, 1u);
  EXPECT_GT(res.stats.branch_points, 0u);
  std::cout << "[ explored ] protocol " << name << " N=" << n << ": "
            << res.stats.schedules << " maximal schedules, "
            << res.stats.events << " events, " << res.stats.sleep_pruned
            << " sleep-pruned branches, max enabled set "
            << res.stats.max_enabled << "\n";
}

INSTANTIATE_TEST_SUITE_P(
    SmallComplete, ExhaustiveTest,
    ::testing::Values(ExhaustiveCase{"D", 3, 0}, ExhaustiveCase{"D", 4, 2},
                      ExhaustiveCase{"E", 3, 0}, ExhaustiveCase{"E", 4, 2}),
    [](const auto& info) {
      return std::string(info.param.protocol) + "_N" +
             std::to_string(info.param.n);
    });

// ---- A seeded bug the explorer must find -----------------------------

// Deliberately broken election: the two highest-id nodes broadcast a
// claim, every other node grants the *first* claim it hears, and a
// candidate declares on its *first* grant (instead of a full quorum).
// The FIFO-friendly schedule elects once — both granters hear the same
// candidate first — so only a genuinely reordered schedule (each granter
// hearing a different candidate first) exposes the double election.
constexpr std::uint16_t kClaim = 1;
constexpr std::uint16_t kGrant = 2;

class BrokenToyNode : public proto::ElectionProcess {
 public:
  explicit BrokenToyNode(const sim::ProcessInit& init)
      : id_(init.id), n_(init.n) {}

  sim::ProtocolObservables Observe() const override {
    sim::ProtocolObservables obs;
    obs.monotone = {{"granted", granted_ ? 1 : 0},
                    {"declared", declared_ ? 1 : 0}};
    return obs;
  }

 protected:
  void OnSpontaneousWakeup(sim::Context& ctx) override {
    if (Candidate()) ctx.SendAll(wire::Packet{kClaim, {id_}});
  }

  void OnPacket(sim::Context& ctx, sim::Port from_port,
                const wire::Packet& p, bool /*first_contact*/) override {
    switch (p.type) {
      case kClaim:
        if (!Candidate() && !granted_) {
          granted_ = true;
          ctx.Send(from_port, wire::Packet{kGrant, {}});
        }
        break;
      case kGrant:
        if (!declared_) {
          declared_ = true;
          ctx.DeclareLeader();  // BUG: one grant is not a quorum
        }
        break;
      default:
        break;
    }
  }

 private:
  bool Candidate() const {
    return id_ > static_cast<sim::Id>(n_) - 2;  // the two largest ids
  }

  const sim::Id id_;
  const std::uint32_t n_;
  bool granted_ = false;
  bool declared_ = false;
};

sim::ProcessFactory MakeBrokenToy() {
  return [](const sim::ProcessInit& init) {
    return std::make_unique<BrokenToyNode>(init);
  };
}

TEST(ExplorerBugHunt, FindsTheDoubleElection) {
  ExplorerOptions opt;
  opt.invariants.unique_leader = true;
  ExploreResult res = Explore(MakeBrokenToy(), SmallNetwork(4), opt);
  ASSERT_FALSE(res.ok()) << "the seeded bug went undetected";
  const Counterexample& cex = *res.counterexample;
  ASSERT_FALSE(cex.violations.empty());
  EXPECT_NE(cex.violations[0].find(kInvMultipleLeaders), std::string::npos)
      << cex.violations[0];
  EXPECT_FALSE(cex.schedule.empty());
  std::cout << "[ found ] minimal counterexample schedule: " << cex.schedule
            << "\n";
}

TEST(ExplorerBugHunt, CounterexampleReplaysBitForBit) {
  ExplorerOptions opt;
  opt.invariants.unique_leader = true;
  ExploreResult res = Explore(MakeBrokenToy(), SmallNetwork(4), opt);
  ASSERT_FALSE(res.ok());

  // The emitted choice string round-trips and reproduces the violation.
  const auto choices = ScheduleFromString(res.counterexample->schedule);
  EXPECT_EQ(choices, res.counterexample->choices);
  ReplayOutcome a = ReplaySchedule(MakeBrokenToy(), SmallNetwork(4), choices,
                                   opt.invariants);
  ReplayOutcome b = ReplaySchedule(MakeBrokenToy(), SmallNetwork(4), choices,
                                   opt.invariants);
  EXPECT_FALSE(a.violations.empty());
  EXPECT_GT(a.result.leader_declarations, 1u);
  EXPECT_EQ(harness::FingerprintResult(a.result),
            harness::FingerprintResult(b.result));
}

TEST(ExplorerBugHunt, ShrunkScheduleIsMinimal) {
  ExplorerOptions opt;
  opt.invariants.unique_leader = true;
  ExploreResult res = Explore(MakeBrokenToy(), SmallNetwork(4), opt);
  ASSERT_FALSE(res.ok());
  const auto& choices = res.counterexample->choices;
  ASSERT_FALSE(choices.empty());
  // 1-minimality: zeroing any single remaining nonzero choice loses the
  // violation — every digit of the repro is load-bearing.
  EXPECT_NE(choices.back(), 0u);
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (choices[i] == 0) continue;
    auto weakened = choices;
    weakened[i] = 0;
    EXPECT_TRUE(ReplaySchedule(MakeBrokenToy(), SmallNetwork(4), weakened,
                               opt.invariants)
                    .violations.empty())
        << "choice " << i << " was droppable";
  }
}

// ---- Schedule string codec -------------------------------------------

TEST(ScheduleCodec, RoundTrips) {
  const std::vector<std::uint32_t> empty;
  EXPECT_EQ(ScheduleToString(empty), "");
  EXPECT_EQ(ScheduleFromString(""), empty);
  const std::vector<std::uint32_t> c{2, 0, 1, 15};
  EXPECT_EQ(ScheduleToString(c), "2.0.1.15");
  EXPECT_EQ(ScheduleFromString("2.0.1.15"), c);
}

TEST(ScheduleCodec, AnyStringIsAValidSchedule) {
  // Out-of-range and too-long choice strings clamp instead of crashing,
  // so a repro pasted from a different build still replays.
  ReplayOutcome out = ReplaySchedule(
      proto::nosod::MakeProtocolD(), SmallNetwork(3),
      ScheduleFromString("99.99.99.99.99.99.99.99.99.99.99.99.99.99"),
      ExploreInvariants());
  EXPECT_EQ(out.result.leader_declarations, 1u);
  EXPECT_TRUE(out.violations.empty());
}

// ---- Replay determinism on a healthy protocol ------------------------

TEST(ExplorerReplay, SameChoicesSameFingerprint) {
  const std::vector<std::uint32_t> choices{1, 0, 2, 1};
  ReplayOutcome a = ReplaySchedule(proto::nosod::MakeProtocolE(),
                                   SmallNetwork(4), choices);
  ReplayOutcome b = ReplaySchedule(proto::nosod::MakeProtocolE(),
                                   SmallNetwork(4), choices);
  EXPECT_EQ(harness::FingerprintResult(a.result),
            harness::FingerprintResult(b.result));
  EXPECT_TRUE(a.violations.empty());
}

// ---- The registry in observational mode ------------------------------

TEST(InvariantRegistry, CleanSeededRunReportsNothing) {
  // A time-ordered seeded run: every wakeup precedes every delivery, so
  // even the max-id claim holds here (unlike under the explorer).
  InvariantOptions io = ExploreInvariants();
  io.leader_is_max_id = true;
  InvariantRegistry registry(io);
  harness::RunOptions o;
  o.n = 8;
  o.seed = 3;
  sim::RuntimeOptions rt;
  rt.observer = &registry;
  sim::Runtime runtime(harness::BuildNetwork(o),
                       proto::nosod::MakeProtocolD(), rt);
  sim::RunResult r = runtime.Run();
  EXPECT_EQ(r.leader_declarations, 1u);
  EXPECT_TRUE(registry.ok()) << registry.Summary();
  EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(InvariantRegistry, ViolationsSurfaceAsPerCauseCounters) {
  // Drive the broken toy down its bad schedule through the plain replay
  // API and check the tallies mirror the drop-counter convention.
  ExplorerOptions opt;
  opt.invariants.unique_leader = true;
  ExploreResult res = Explore(MakeBrokenToy(), SmallNetwork(4), opt);
  ASSERT_FALSE(res.ok());
  ReplayOutcome out =
      ReplaySchedule(MakeBrokenToy(), SmallNetwork(4),
                     res.counterexample->choices, opt.invariants);
  EXPECT_GE(out.result.invariant_violations, 1u);
  const std::string key = std::string("invariant.") + kInvMultipleLeaders;
  ASSERT_TRUE(out.result.counters.count(key));
  EXPECT_GE(out.result.counters.at(key), 1);
}

}  // namespace
}  // namespace celect::analysis
