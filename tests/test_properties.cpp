// Property suite: the election safety and liveness invariants, swept
// across every protocol × delay model × wakeup pattern × identity
// assignment × seed. This is the main defence of the protocol
// implementations — each combination is an independent asynchronous
// execution, and in every single one exactly one node may declare
// itself leader.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "celect/adversary/adaptive_adversary.h"
#include "celect/harness/experiment.h"
#include "celect/harness/registry.h"
#include "test_util.h"

namespace celect::harness {
namespace {

struct PropertyCase {
  std::string protocol;
  std::uint32_t n;
  DelayKind delay;
  WakeupKind wakeup;
  IdentityKind identity;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os,
                                  const PropertyCase& c) {
    os << c.protocol << "_N" << c.n << "_d" << static_cast<int>(c.delay)
       << "_w" << static_cast<int>(c.wakeup) << "_i"
       << static_cast<int>(c.identity) << "_s" << c.seed;
    return os;
  }
};

std::vector<PropertyCase> MakeCases() {
  std::vector<PropertyCase> cases;
  const std::vector<std::string> protocols = {
      "lmw86", "A", "A'", "B", "C", "D", "E", "E-raw", "F", "G", "G2",
      "FT"};
  const std::vector<std::uint32_t> sizes = {4, 8, 16, 32};
  const std::vector<DelayKind> delays = {DelayKind::kUnit,
                                         DelayKind::kRandom,
                                         DelayKind::kEager};
  const std::vector<WakeupKind> wakeups = {WakeupKind::kAllAtZero,
                                           WakeupKind::kSingle,
                                           WakeupKind::kRandomSubset,
                                           WakeupKind::kStaggeredChain};
  const std::vector<IdentityKind> identities = {
      IdentityKind::kAscending, IdentityKind::kRandomPermutation};

  std::uint64_t seed = 0;
  for (const auto& proto : protocols) {
    for (auto n : sizes) {
      for (auto delay : delays) {
        for (auto wakeup : wakeups) {
          // One identity assignment per (delay, wakeup) pairing keeps the
          // matrix manageable while still mixing both in.
          IdentityKind identity =
              identities[(static_cast<int>(delay) +
                          static_cast<int>(wakeup)) %
                         identities.size()];
          cases.push_back(
              {proto, n, delay, wakeup, identity, ++seed});
        }
      }
    }
  }
  return cases;
}

class ElectionProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ElectionProperty, ExactlyOneLeaderAndQuiescence) {
  const PropertyCase& c = GetParam();
  auto spec = FindProtocol(c.protocol);
  ASSERT_TRUE(spec.has_value());

  RunOptions o;
  o.n = c.n;
  o.seed = c.seed;
  o.delay = c.delay;
  o.wakeup = c.wakeup;
  o.identity = c.identity;
  o.wakeup_count = 1 + static_cast<std::uint32_t>(c.seed % c.n);
  o.wakeup_window = 2.0;
  o.mapper = spec->needs_sense_of_direction ? MapperKind::kSenseOfDirection
                                            : MapperKind::kRandom;

  auto r = RunElection(spec->make(0), o);

  // Safety: at most one leader — and liveness: at least one.
  EXPECT_EQ(r.leader_declarations, 1u);
  ASSERT_TRUE(r.leader_id.has_value());
  // The leader's identity is one of the assigned identities (1..N for
  // ascending/permuted assignments).
  EXPECT_GE(*r.leader_id, 1);
  EXPECT_LE(*r.leader_id, static_cast<sim::Id>(c.n));
  // Quiescence is implied by RunElection returning within the event
  // budget; the declaration cannot postdate quiescence.
  EXPECT_LE(r.leader_time, r.quiesce_time);
  // Sanity cap: nothing should ever need more than ~N² + broadcast
  // messages on these small networks.
  EXPECT_LE(r.total_messages, 6ull * c.n * c.n + 64);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ElectionProperty,
                         ::testing::ValuesIn(MakeCases()));

// Messages always carry O(log N) bits: check the measured wire bytes per
// message across a representative run of each protocol.
class MessageSizeProperty
    : public ::testing::TestWithParam<std::string> {};

TEST_P(MessageSizeProperty, MessagesStaySmall) {
  auto spec = FindProtocol(GetParam());
  ASSERT_TRUE(spec.has_value());
  RunOptions o;
  o.n = 32;
  o.mapper = spec->needs_sense_of_direction ? MapperKind::kSenseOfDirection
                                            : MapperKind::kRandom;
  auto r = RunElection(spec->make(0), o);
  ASSERT_GT(r.total_messages, 0u);
  double avg_bytes = static_cast<double>(r.total_bytes) /
                     static_cast<double>(r.total_messages);
  EXPECT_LE(avg_bytes, 24.0) << "messages must stay O(log N) bits";
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, MessageSizeProperty,
    ::testing::Values("lmw86", "A", "A'", "B", "C", "D", "E", "F", "G",
                      "G2", "FT"));

// The §5 adaptive adversary binds ports lazily; every no-SoD protocol
// must still elect exactly one leader under it.
struct AdversaryCase {
  std::string protocol;
  std::uint32_t n;
  std::uint32_t radius;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os,
                                  const AdversaryCase& c) {
    os << c.protocol << "_N" << c.n << "_k" << c.radius << "_s" << c.seed;
    return os;
  }
};

class AdversaryProperty : public ::testing::TestWithParam<AdversaryCase> {};

TEST_P(AdversaryProperty, ExactlyOneLeaderUnderAdaptiveBinding) {
  const auto& c = GetParam();
  auto spec = FindProtocol(c.protocol);
  ASSERT_TRUE(spec.has_value());
  ASSERT_FALSE(spec->needs_sense_of_direction);

  RunOptions o;
  o.n = c.n;
  o.seed = c.seed;
  o.delay = c.seed % 2 ? DelayKind::kRandom : DelayKind::kUnit;
  o.wakeup = c.seed % 3 ? WakeupKind::kAllAtZero
                        : WakeupKind::kRandomSubset;
  o.wakeup_count = 1 + static_cast<std::uint32_t>(c.seed % c.n);

  // BuildNetwork draws each part from its own split stream, so swapping
  // in the adversary moves no other draw.
  sim::NetworkConfig config = BuildNetwork(o);
  config.mapper = adversary::MakeUpFirstMapper(c.n, c.radius);
  sim::Runtime runtime(std::move(config), spec->make(0));
  auto r = runtime.Run();
  EXPECT_EQ(r.leader_declarations, 1u);
  EXPECT_TRUE(r.leader_id.has_value());
}

std::vector<AdversaryCase> MakeAdversaryCases() {
  std::vector<AdversaryCase> cases;
  std::uint64_t seed = 1000;
  for (const char* proto : {"D", "E", "E-raw", "F", "G", "G2", "FT"}) {
    for (std::uint32_t n : {8u, 16u, 32u}) {
      for (std::uint32_t radius : {2u, 4u, 8u}) {
        cases.push_back({proto, n, radius, ++seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(NoSodProtocols, AdversaryProperty,
                         ::testing::ValuesIn(MakeAdversaryCases()));

}  // namespace
}  // namespace celect::harness
