// Hamiltonian-ring arithmetic for complete networks with sense of
// direction.
//
// Sense of direction (LMW86): the network has a directed Hamiltonian
// cycle, and the edge from node i to the node at distance d along the
// cycle is labelled d at i. The paper writes i[d] for that node and
// i[x..y] for {i[x], ..., i[y]}. All arithmetic is modulo N.
//
// Nodes are addressed here by ring *position* (0..N-1); the mapping from
// position to processor identity lives in CompleteGraph.
#pragma once

#include <cstdint>

namespace celect::topo {

using Position = std::uint32_t;
using Distance = std::uint32_t;

class RingMath {
 public:
  explicit RingMath(std::uint32_t n);

  std::uint32_t n() const { return n_; }

  // i[d]: position at distance d forward of pos. d may exceed N.
  Position At(Position pos, Distance d) const;

  // Largest power of two ≤ x (≥ 1 for x ≥ 1).
  static std::uint32_t FloorPow2(std::uint32_t x);
  // ⌈log2 x⌉ for x ≥ 1.
  static std::uint32_t CeilLog2(std::uint32_t x);
  // ⌊log2 x⌋ for x ≥ 1.
  static std::uint32_t FloorLog2(std::uint32_t x);

  // The stride the paper picks for protocol C: k = N / 2^⌈log log N⌉,
  // computed for power-of-two N (protocol C assumes N = 2^r).
  static std::uint32_t ProtocolCStride(std::uint32_t n);

 private:
  std::uint32_t n_;
};

}  // namespace celect::topo
