#include <gtest/gtest.h>

#include "celect/topo/complete_graph.h"
#include "celect/topo/ring_math.h"

namespace celect::topo {
namespace {

TEST(RingMath, AtWrapsModulo) {
  RingMath ring(6);
  EXPECT_EQ(ring.At(0, 1), 1u);
  EXPECT_EQ(ring.At(5, 1), 0u);
  EXPECT_EQ(ring.At(4, 5), 3u);
  EXPECT_EQ(ring.At(2, 6), 2u);   // full loop
  EXPECT_EQ(ring.At(2, 13), 3u);  // d > N
}

TEST(RingMath, DistanceIsInverseOfAt) {
  // Under sense of direction the port label is the ring distance, so
  // the mapper's PortToward inverts At.
  RingMath ring(10);
  auto mapper = sim::MakeSodMapper(10);
  for (Position from = 0; from < 10; ++from) {
    for (Distance d = 1; d < 10; ++d) {
      EXPECT_EQ(mapper->PortToward(from, ring.At(from, d)), d);
    }
  }
}

TEST(RingMath, Pow2Helpers) {
  EXPECT_EQ(RingMath::FloorPow2(1), 1u);
  EXPECT_EQ(RingMath::FloorPow2(7), 4u);
  EXPECT_EQ(RingMath::FloorPow2(8), 8u);
  EXPECT_EQ(RingMath::FloorLog2(1), 0u);
  EXPECT_EQ(RingMath::FloorLog2(1024), 10u);
  EXPECT_EQ(RingMath::CeilLog2(1), 0u);
  EXPECT_EQ(RingMath::CeilLog2(9), 4u);
  EXPECT_EQ(RingMath::CeilLog2(1024), 10u);
}

TEST(RingMath, ProtocolCStrideMatchesFormula) {
  // k = N / 2^{ceil(log log N)}.
  EXPECT_EQ(RingMath::ProtocolCStride(16), 4u);    // 16 / 2^⌈log2 4⌉ = 2^2
  EXPECT_EQ(RingMath::ProtocolCStride(64), 8u);    // 64 / 2^⌈log2 6⌉ = 2^3
  EXPECT_EQ(RingMath::ProtocolCStride(256), 32u);  // 256 / 2^⌈log2 8⌉ = 2^3
  EXPECT_EQ(RingMath::ProtocolCStride(1024), 64u); // 1024 / 2^⌈log2 10⌉=2^4
}

TEST(RingMath, ProtocolCStrideDividesN) {
  for (std::uint32_t n = 4; n <= 4096; n *= 2) {
    std::uint32_t k = RingMath::ProtocolCStride(n);
    EXPECT_EQ(n % k, 0u) << "n=" << n;
    EXPECT_GE(k, 1u);
    EXPECT_LT(k, n);
  }
}

TEST(CompleteGraph, EdgeCount) {
  CompleteGraph g(6);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_EQ(CompleteGraph(2).edge_count(), 1u);
}

TEST(CompleteGraph, SodMapperIsAValidSenseOfDirection) {
  // Figure 1's property, at several sizes.
  for (std::uint32_t n : {2u, 3u, 6u, 16u, 33u}) {
    CompleteGraph g(n);
    auto mapper = sim::MakeSodMapper(n);
    EXPECT_EQ(g.ValidateSenseOfDirection(*mapper), "") << "n=" << n;
    EXPECT_EQ(g.ValidatePortAssignment(*mapper), "") << "n=" << n;
  }
}

TEST(CompleteGraph, RandomMapperIsValidButNotSod) {
  for (std::uint32_t n : {2u, 5u, 16u, 64u}) {
    CompleteGraph g(n);
    auto mapper = sim::MakeRandomMapper(n, /*seed=*/n);
    EXPECT_EQ(g.ValidatePortAssignment(*mapper), "") << "n=" << n;
    EXPECT_NE(g.ValidateSenseOfDirection(*mapper), "");
  }
}

TEST(CompleteGraph, Figure1RenderListsSixNodes) {
  CompleteGraph g(6);
  std::string fig = g.RenderFigure1();
  EXPECT_NE(fig.find("N=6"), std::string::npos);
  EXPECT_NE(fig.find("node 5"), std::string::npos);
  EXPECT_NE(fig.find("[5]->4"), std::string::npos);  // node 5, distance 5
}

}  // namespace
}  // namespace celect::topo
