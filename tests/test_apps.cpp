// Applications layered on election: spanning tree and global function
// (paper §1/§6 equivalences).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "celect/apps/global_function.h"
#include "celect/apps/spanning_tree.h"
#include "celect/proto/nosod/protocol_g.h"
#include "celect/proto/sod/protocol_c.h"
#include "test_util.h"

namespace celect::apps {
namespace {

using harness::MapperKind;
using harness::RunOptions;

sim::ProcessFactory ElectionC() { return proto::sod::MakeProtocolC(); }
sim::ProcessFactory ElectionG(std::uint32_t n) {
  return proto::nosod::MakeProtocolG(proto::nosod::MessageOptimalK(n));
}

TEST(SpanningTree, BuildsATreeOverProtocolC) {
  const std::uint32_t n = 64;
  RunOptions o;
  o.n = n;
  o.mapper = MapperKind::kSenseOfDirection;
  sim::Runtime rt(harness::BuildNetwork(o), MakeSpanningTree(ElectionC()));
  auto r = rt.Run();
  ASSERT_EQ(r.leader_declarations, 1u);

  std::uint32_t roots = 0, joined = 0;
  for (sim::NodeId i = 0; i < n; ++i) {
    auto& p = dynamic_cast<SpanningTreeProcess&>(rt.process(i));
    if (p.is_root()) {
      ++roots;
      EXPECT_EQ(p.children(), n - 1);
      EXPECT_FALSE(p.parent_port().has_value());
    } else if (p.parent_port().has_value()) {
      ++joined;
      EXPECT_EQ(p.root_id(), r.leader_id);
    }
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(joined, n - 1);
}

TEST(SpanningTree, CarriesTheElectionsPhaseRows) {
  // The app wrapper forwards phase spans, so a tree over C reports the
  // rows C alone reports: capture1, capture2, doubling.1, doubling.2.
  RunOptions o;
  o.n = 16;
  o.mapper = MapperKind::kSenseOfDirection;
  const sim::RunResult plain = harness::RunElection(ElectionC(), o);
  const sim::RunResult tree =
      harness::RunElection(MakeSpanningTree(ElectionC()), o);
  const auto keys = [](const sim::RunResult& r) {
    std::vector<std::string> out;
    for (const auto& [key, agg] : r.phases) out.push_back(key);
    return out;
  };
  EXPECT_EQ(keys(plain), (std::vector<std::string>{
                             "capture1", "capture2", "doubling.1",
                             "doubling.2"}));
  EXPECT_EQ(keys(tree), keys(plain));
}

TEST(SpanningTree, BuildsOverProtocolGWithoutSod) {
  const std::uint32_t n = 32;
  RunOptions o;
  o.n = n;
  o.mapper = MapperKind::kRandom;
  sim::Runtime rt(harness::BuildNetwork(o),
                  MakeSpanningTree(ElectionG(n)));
  auto r = rt.Run();
  ASSERT_EQ(r.leader_declarations, 1u);
  std::uint32_t joined = 0;
  for (sim::NodeId i = 0; i < n; ++i) {
    auto& p = dynamic_cast<SpanningTreeProcess&>(rt.process(i));
    if (!p.is_root() && p.parent_port().has_value()) ++joined;
  }
  EXPECT_EQ(joined, n - 1);
}

TEST(SpanningTree, OverheadIsLinearInN) {
  const std::uint32_t n = 64;
  RunOptions o;
  o.n = n;
  o.mapper = MapperKind::kSenseOfDirection;
  auto plain = harness::RunElection(ElectionC(), o);
  sim::Runtime rt(harness::BuildNetwork(o), MakeSpanningTree(ElectionC()));
  auto with_tree = rt.Run();
  // Invites + joins: exactly 2(N-1) extra messages.
  EXPECT_EQ(with_tree.total_messages - plain.total_messages,
            2u * (n - 1));
}

TEST(GlobalFunction, ComputesMaxOverProtocolC) {
  const std::uint32_t n = 64;
  RunOptions o;
  o.n = n;
  o.mapper = MapperKind::kSenseOfDirection;
  auto input_of = [](sim::NodeId addr) {
    // Maximum input lives at an arbitrary non-leader node.
    return static_cast<std::int64_t>((addr * 37) % 101);
  };
  std::int64_t want = 0;
  for (sim::NodeId i = 0; i < n; ++i) want = std::max(want, input_of(i));

  sim::Runtime rt(harness::BuildNetwork(o),
                  MakeGlobalFunction(ElectionC(), input_of, MaxReducer()));
  auto r = rt.Run();
  ASSERT_EQ(r.leader_declarations, 1u);
  for (sim::NodeId i = 0; i < n; ++i) {
    auto& p = dynamic_cast<GlobalFunctionProcess&>(rt.process(i));
    ASSERT_TRUE(p.result().has_value()) << "node " << i;
    EXPECT_EQ(*p.result(), want);
  }
}

TEST(GlobalFunction, ComputesSumOverProtocolG) {
  const std::uint32_t n = 24;
  RunOptions o;
  o.n = n;
  o.mapper = MapperKind::kRandom;
  auto input_of = [](sim::NodeId addr) {
    return static_cast<std::int64_t>(addr) + 1;
  };
  sim::Runtime rt(
      harness::BuildNetwork(o),
      MakeGlobalFunction(ElectionG(n), input_of, SumReducer()));
  auto r = rt.Run();
  ASSERT_EQ(r.leader_declarations, 1u);
  std::int64_t want = static_cast<std::int64_t>(n) * (n + 1) / 2;
  auto& p = dynamic_cast<GlobalFunctionProcess&>(rt.process(0));
  ASSERT_TRUE(p.result().has_value());
  EXPECT_EQ(*p.result(), want);
}

TEST(GlobalFunction, RandomDelaysStillConverge) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunOptions o;
    o.n = 16;
    o.seed = seed;
    o.mapper = MapperKind::kRandom;
    o.delay = harness::DelayKind::kRandom;
    auto input_of = [](sim::NodeId addr) {
      return static_cast<std::int64_t>(addr);
    };
    sim::Runtime rt(
        harness::BuildNetwork(o),
        MakeGlobalFunction(ElectionG(16), input_of, MaxReducer()));
    auto r = rt.Run();
    ASSERT_EQ(r.leader_declarations, 1u) << "seed=" << seed;
    auto& p = dynamic_cast<GlobalFunctionProcess&>(rt.process(3));
    ASSERT_TRUE(p.result().has_value());
    EXPECT_EQ(*p.result(), 15);
  }
}

}  // namespace
}  // namespace celect::apps
