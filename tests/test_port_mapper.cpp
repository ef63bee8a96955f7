#include "celect/sim/port_mapper.h"

#include <gtest/gtest.h>

#include <set>

#include "celect/adversary/adaptive_adversary.h"

namespace celect::sim {
namespace {

TEST(SodPortMapper, PortIsDistance) {
  SodPortMapper m(8);
  EXPECT_EQ(m.Resolve(0, 3), 3u);
  EXPECT_EQ(m.Resolve(6, 3), 1u);
  EXPECT_EQ(m.PortToward(6, 1), 3u);
  EXPECT_EQ(m.PortToward(1, 6), 5u);  // complementary label N - 3
}

TEST(SodPortMapper, FreshPortsScanInDistanceOrder) {
  SodPortMapper m(5);
  EXPECT_EQ(m.FreshPort(0), Port{1});
  m.MarkTraversed(0, 1);
  m.MarkTraversed(0, 2);
  EXPECT_EQ(m.FreshPort(0), Port{3});
  m.MarkTraversed(0, 3);
  m.MarkTraversed(0, 4);
  EXPECT_FALSE(m.FreshPort(0).has_value());
}

TEST(SodPortMapper, TraversalIsPerNode) {
  SodPortMapper m(4);
  m.MarkTraversed(0, 1);
  EXPECT_EQ(m.FreshPort(0), Port{2});
  EXPECT_EQ(m.FreshPort(1), Port{1});
}

// Past kDenseMaxN nodes the traversed ports live in a PairMap set;
// FreshPort must see exactly what MarkTraversed put there, per node.
void CheckSparseTraversal(PortMapper& m) {
  const std::uint32_t n = m.n();
  ASSERT_EQ(n, kDenseMaxN + 1);
  EXPECT_EQ(m.FreshPort(0), Port{1});
  for (Port p = 1; p <= 2'000; ++p) m.MarkTraversed(7, p);
  m.MarkTraversed(7, 2'002);
  m.MarkTraversed(7, 2'002);  // marking twice changes nothing
  EXPECT_EQ(m.FreshPort(7), Port{2'001});
  m.MarkTraversed(7, 2'001);
  EXPECT_EQ(m.FreshPort(7), Port{2'003});
  EXPECT_EQ(m.FreshPort(8), Port{1});
  for (Port p = n - 1; p >= 1; --p) m.MarkTraversed(n - 1, p);
  EXPECT_FALSE(m.FreshPort(n - 1).has_value());
  EXPECT_EQ(m.FreshPort(7), Port{2'003});
}

TEST(SodPortMapper, SparseTraversalPastTheDenseCeiling) {
  SodPortMapper m(kDenseMaxN + 1);
  CheckSparseTraversal(m);
}

TEST(RandomPortMapper, SparseTraversalPastTheDenseCeiling) {
  RandomPortMapper m(kDenseMaxN + 1, /*seed=*/3);
  CheckSparseTraversal(m);
}

TEST(RandomPortMapper, ResolveAndPortTowardAreInverse) {
  RandomPortMapper m(64, /*seed=*/99);
  for (NodeId node : {0u, 7u, 33u, 63u}) {
    std::set<NodeId> seen;
    for (Port p = 1; p <= 63; ++p) {
      NodeId v = m.Resolve(node, p);
      EXPECT_NE(v, node);
      EXPECT_LT(v, 64u);
      EXPECT_TRUE(seen.insert(v).second);
      EXPECT_EQ(m.PortToward(node, v), p);
    }
  }
}

TEST(RandomPortMapper, DifferentSeedsGiveDifferentLayouts) {
  RandomPortMapper a(32, 1), b(32, 2);
  int same = 0;
  for (Port p = 1; p <= 31; ++p) {
    if (a.Resolve(5, p) == b.Resolve(5, p)) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(RandomPortMapper, PermutationIsNotIdentityLike) {
  RandomPortMapper m(128, 7);
  int fixed = 0;
  for (Port p = 1; p <= 127; ++p) {
    if (m.Resolve(0, p) == p) ++fixed;
  }
  EXPECT_LT(fixed, 20);
}

}  // namespace
}  // namespace celect::sim

namespace celect::adversary {
namespace {

using sim::NodeId;
using sim::Port;

TEST(AdaptiveAdversary, UpFirstBindsAscendingNeighbours) {
  AdaptiveAdversaryMapper m(16, UpFirstStrategy(16, 3));
  // Node 5's first three fresh sends must go to 6, 7, 8.
  for (NodeId expect : {6u, 7u, 8u}) {
    auto port = m.FreshPort(5);
    ASSERT_TRUE(port.has_value());
    EXPECT_EQ(m.Resolve(5, *port), expect);
    m.MarkTraversed(5, *port);
  }
  // Then the Down set: 4, 3, 2.
  for (NodeId expect : {4u, 3u, 2u}) {
    auto port = m.FreshPort(5);
    EXPECT_EQ(m.Resolve(5, *port), expect);
    m.MarkTraversed(5, *port);
  }
}

TEST(AdaptiveAdversary, BindingIsConsistentBothWays) {
  AdaptiveAdversaryMapper m(8, UpFirstStrategy(8, 2));
  auto port = m.FreshPort(3);
  NodeId v = m.Resolve(3, *port);
  Port back = m.PortToward(v, 3);
  EXPECT_EQ(m.Resolve(v, back), 3u);
  EXPECT_EQ(m.PortToward(3, v), *port);
}

TEST(AdaptiveAdversary, EveryNeighbourBoundOnce) {
  AdaptiveAdversaryMapper m(10, UpFirstStrategy(10, 4));
  std::set<NodeId> seen;
  for (Port p = 1; p <= 9; ++p) {
    NodeId v = m.Resolve(4, p);
    EXPECT_TRUE(seen.insert(v).second);
  }
  EXPECT_EQ(seen.size(), 9u);
  EXPECT_FALSE(seen.count(4));
}

TEST(AdaptiveAdversary, EdgeNodesFallBackPastTheLine) {
  // Node N-1 has no Up neighbours; it must bind Down first.
  AdaptiveAdversaryMapper m(8, UpFirstStrategy(8, 2));
  auto port = m.FreshPort(7);
  EXPECT_EQ(m.Resolve(7, *port), 6u);
}

TEST(AdaptiveAdversary, TracksMaxBoundDistance) {
  AdaptiveAdversaryMapper m(32, UpFirstStrategy(32, 2));
  m.Resolve(10, *m.FreshPort(10));  // binds 10–11
  EXPECT_EQ(m.MaxBoundDistance(), 1u);
  m.PortToward(0, 20);  // a faraway delivery binds 0–20
  EXPECT_EQ(m.MaxBoundDistance(), 20u);
}

TEST(AdaptiveAdversary, RandomStrategyIsValid) {
  AdaptiveAdversaryMapper m(12, RandomStrategy(12, 5));
  std::set<NodeId> seen;
  for (Port p = 1; p <= 11; ++p) {
    NodeId v = m.Resolve(3, p);
    EXPECT_NE(v, 3u);
    EXPECT_TRUE(seen.insert(v).second);
  }
}

TEST(AdaptiveAdversary, BoundDegreeCountsBindings) {
  AdaptiveAdversaryMapper m(8, UpFirstStrategy(8, 2));
  EXPECT_EQ(m.BoundDegree(2), 0u);
  m.Resolve(2, *m.FreshPort(2));
  EXPECT_EQ(m.BoundDegree(2), 1u);
}

}  // namespace
}  // namespace celect::adversary
