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

// Unbound ports are handed out in number order, so a node's next fresh
// edge is always its next port number: 1, 2, 3, ...

TEST(AdaptiveAdversary, UpFirstBindsAscendingNeighbours) {
  AdaptiveAdversaryMapper m(16, UpFirstStrategy(16, 3));
  Port port = 1;
  // Node 5's first three fresh sends must go to 6, 7, 8.
  for (NodeId expect : {6u, 7u, 8u}) {
    EXPECT_EQ(m.Resolve(5, port++), expect);
  }
  // Then the Down set: 4, 3, 2.
  for (NodeId expect : {4u, 3u, 2u}) {
    EXPECT_EQ(m.Resolve(5, port++), expect);
  }
}

TEST(AdaptiveAdversary, BindingIsConsistentBothWays) {
  AdaptiveAdversaryMapper m(8, UpFirstStrategy(8, 2));
  const Port port = 1;
  NodeId v = m.Resolve(3, port);
  Port back = m.PortToward(v, 3);
  EXPECT_EQ(m.Resolve(v, back), 3u);
  EXPECT_EQ(m.PortToward(3, v), port);
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
  EXPECT_EQ(m.Resolve(7, 1), 6u);
}

TEST(AdaptiveAdversary, TracksMaxBoundDistance) {
  AdaptiveAdversaryMapper m(32, UpFirstStrategy(32, 2));
  m.Resolve(10, 1);  // binds 10–11
  EXPECT_EQ(m.MaxBoundDistance(), 1u);
  m.PortToward(0, 20);  // a faraway delivery binds 0–20
  EXPECT_EQ(m.MaxBoundDistance(), 20u);
}

TEST(AdaptiveAdversary, BoundDegreeCountsBindings) {
  AdaptiveAdversaryMapper m(8, UpFirstStrategy(8, 2));
  EXPECT_EQ(m.BoundDegree(2), 0u);
  m.Resolve(2, 1);
  EXPECT_EQ(m.BoundDegree(2), 1u);
}

}  // namespace
}  // namespace celect::adversary
