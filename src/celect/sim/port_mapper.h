// Port→neighbour mappings.
//
// Each node has N-1 locally-numbered ports (1..N-1). What a node can
// learn from a port number is the crux of the paper:
//
//  * SodPortMapper — sense of direction: port d is the edge to the node
//    at Hamiltonian distance d (addresses double as ring positions).
//  * RandomPortMapper — no sense of direction: each node's ports are a
//    pseudo-random permutation of its neighbours (Feistel-based, O(1)
//    memory, reproducible from the seed).
//  * Adaptive adversarial mappers (celect/adversary/) bind ports to
//    neighbours lazily, at first use, which is exactly the freedom the §5
//    lower-bound adversary exploits.
//
// A mapper only maps ports; it keeps no record of which ports a node
// has used. A protocol that walks "untraversed incident edges" (§4)
// keeps that record itself, as a node in a port-numbered network must.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "celect/sim/types.h"
#include "celect/util/feistel.h"

namespace celect::sim {

class PortMapper {
 public:
  virtual ~PortMapper() = default;

  virtual std::uint32_t n() const = 0;
  virtual bool HasSenseOfDirection() const = 0;

  // The neighbour reached from `node` via `port` (1 <= port < N).
  // Adaptive mappers may bind the edge at this moment.
  virtual NodeId Resolve(NodeId node, Port port) = 0;

  // The port at `node` whose edge leads to `neighbor`; used by the
  // runtime to compute arrival ports. Adaptive mappers may bind here.
  virtual Port PortToward(NodeId node, NodeId neighbor) = 0;
};

// Sense of direction: port == Hamiltonian distance.
class SodPortMapper : public PortMapper {
 public:
  explicit SodPortMapper(std::uint32_t n);
  std::uint32_t n() const override { return n_; }
  bool HasSenseOfDirection() const override { return true; }
  NodeId Resolve(NodeId node, Port port) override;
  Port PortToward(NodeId node, NodeId neighbor) override;

 private:
  std::uint32_t n_;
};

// No sense of direction: per-node pseudo-random permutation.
class RandomPortMapper : public PortMapper {
 public:
  RandomPortMapper(std::uint32_t n, std::uint64_t seed);
  std::uint32_t n() const override { return n_; }
  bool HasSenseOfDirection() const override { return false; }
  NodeId Resolve(NodeId node, Port port) override;
  Port PortToward(NodeId node, NodeId neighbor) override;

 private:
  const FeistelPermutation& PermFor(NodeId node);
  std::uint32_t n_;
  std::uint64_t seed_;
  // Each node's permutation, built on first use.
  std::vector<std::optional<FeistelPermutation>> perms_;
};

std::unique_ptr<PortMapper> MakeSodMapper(std::uint32_t n);
std::unique_ptr<PortMapper> MakeRandomMapper(std::uint32_t n,
                                             std::uint64_t seed);

}  // namespace celect::sim
