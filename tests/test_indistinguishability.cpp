// §5's indistinguishability machinery, as executable properties.
//
// The lower-bound proof builds executions that no comparison-based
// protocol can tell apart: stretching link delays uniformly (the g/h
// transformations) changes *when* things happen but not *what* each node
// observes. We check the executable core of that argument: runs of the
// same protocol on the same network under delay models that differ only
// by a uniform stretch produce identical per-node observation sequences
// (same packets on same ports in the same order), identical leaders and
// identical message counts — only the clock differs. We also check
// determinism: the whole simulation is a pure function of its seed.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "celect/harness/experiment.h"
#include "celect/harness/registry.h"
#include "celect/sim/runtime.h"
#include "celect/wire/checksum.h"
#include "celect/wire/packet_codec.h"

namespace celect {
namespace {

// Per-node observation sequence: deliveries only (what a protocol can
// see), excluding timestamps.
std::vector<std::string> ObservationSequences(const sim::Trace& trace,
                                              std::uint32_t n) {
  std::vector<std::string> seq(n);
  for (const auto& r : trace.records()) {
    if (r.kind != sim::TraceRecord::Kind::kDeliver) continue;
    seq[r.node] += std::to_string(r.port) + ":" + std::to_string(r.type) +
                   ";";
  }
  return seq;
}

std::uint64_t TraceHash(const sim::Trace& trace, bool include_time) {
  std::ostringstream os;
  for (const auto& r : trace.records()) {
    os << static_cast<int>(r.kind) << "," << r.node << "," << r.peer << ","
       << r.port << "," << r.type;
    if (include_time) os << "," << r.at.ticks();
    os << "\n";
  }
  std::string s = os.str();
  return wire::Fnv1a64(reinterpret_cast<const std::uint8_t*>(s.data()),
                       s.size());
}

sim::NetworkConfig ConfigFor(const harness::ProtocolSpec& spec,
                             std::uint32_t n, std::uint64_t seed,
                             double delay_units) {
  harness::RunOptions o;
  o.n = n;
  o.seed = seed;
  o.mapper = spec.needs_sense_of_direction
                 ? harness::MapperKind::kSenseOfDirection
                 : harness::MapperKind::kRandom;
  auto config = harness::BuildNetwork(o);
  config.delays = std::make_unique<sim::FunctionDelayModel>(
      [delay_units](const sim::MessageInfo&) {
        return sim::DelayDecision{sim::Time::FromDouble(delay_units),
                                  sim::Time::Zero()};
      });
  return config;
}

class Indistinguishability
    : public ::testing::TestWithParam<std::string> {};

TEST_P(Indistinguishability, UniformDelayStretchIsInvisible) {
  auto spec = harness::FindProtocol(GetParam());
  ASSERT_TRUE(spec.has_value());
  const std::uint32_t n = 16;

  sim::RuntimeOptions rt_opts;
  rt_opts.enable_trace = true;

  // Fast execution: every delay 0.25; stretched: every delay 0.875
  // (both within the model's (0, 1]).
  sim::Runtime fast(ConfigFor(*spec, n, 7, 0.25), spec->make(0), rt_opts);
  auto fast_result = fast.Run();
  sim::Runtime slow(ConfigFor(*spec, n, 7, 0.875), spec->make(0), rt_opts);
  auto slow_result = slow.Run();

  // Identical outcomes and identical per-node observations...
  EXPECT_EQ(fast_result.leader_id, slow_result.leader_id);
  EXPECT_EQ(fast_result.leader_declarations,
            slow_result.leader_declarations);
  EXPECT_EQ(fast_result.total_messages, slow_result.total_messages);
  EXPECT_EQ(ObservationSequences(fast.trace(), n),
            ObservationSequences(slow.trace(), n));
  // ...with only the clock differing.
  EXPECT_LT(fast_result.quiesce_time, slow_result.quiesce_time);
  EXPECT_EQ(TraceHash(fast.trace(), /*include_time=*/false),
            TraceHash(slow.trace(), /*include_time=*/false));
  EXPECT_NE(TraceHash(fast.trace(), /*include_time=*/true),
            TraceHash(slow.trace(), /*include_time=*/true));
}

TEST_P(Indistinguishability, SimulationIsAPureFunctionOfTheSeed) {
  auto spec = harness::FindProtocol(GetParam());
  ASSERT_TRUE(spec.has_value());
  harness::RunOptions o;
  o.n = 16;  // power of two: valid for B and C as well
  o.seed = 99;
  o.delay = harness::DelayKind::kRandom;
  o.identity = harness::IdentityKind::kRandomPermutation;
  o.mapper = spec->needs_sense_of_direction
                 ? harness::MapperKind::kSenseOfDirection
                 : harness::MapperKind::kRandom;

  sim::RuntimeOptions rt_opts;
  rt_opts.enable_trace = true;
  sim::Runtime a(harness::BuildNetwork(o), spec->make(0), rt_opts);
  a.Run();
  sim::Runtime b(harness::BuildNetwork(o), spec->make(0), rt_opts);
  b.Run();
  EXPECT_EQ(TraceHash(a.trace(), true), TraceHash(b.trace(), true));
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, Indistinguishability,
                         ::testing::Values("lmw86", "A", "A'", "B", "C",
                                           "D", "E", "F", "G", "G2"));

TEST(Indistinguishability, DelaySwapBeyondCausalityChangesOutcome) {
  // Control: delays that reorder *concurrent* contests are allowed to
  // change who wins — asynchrony is real. Protocol D's winner is
  // delay-independent (pure identity order), so use E, whose winner
  // depends on the capture race.
  auto spec = harness::FindProtocol("E");
  const std::uint32_t n = 24;
  std::map<sim::Id, int> winners;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    harness::RunOptions o;
    o.n = n;
    o.seed = seed;
    o.delay = harness::DelayKind::kRandom;
    auto r = harness::RunElection(spec->make(0), o);
    ASSERT_TRUE(r.leader_id.has_value());
    ++winners[*r.leader_id];
  }
  // Different schedules elect different leaders at least once.
  EXPECT_GT(winners.size(), 1u);
}

}  // namespace
}  // namespace celect
