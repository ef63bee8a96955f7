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
// The mapper also tracks which ports each node has traversed (sent or
// received on); protocols that walk "untraversed incident edges" pull
// fresh ports from here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "celect/sim/pair_table.h"
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

  // An untraversed port of `node`, or nullopt when all N-1 ports are
  // traversed. Which untraversed port comes back is mapper policy — this
  // is the adversary's lever.
  virtual std::optional<Port> FreshPort(NodeId node) = 0;

  // Marks a port traversed. Runtime calls this on every send and
  // delivery.
  virtual void MarkTraversed(NodeId node, Port port) = 0;
};

// Shared traversal bookkeeping plus a monotone scan cursor, so FreshPort
// is amortised O(1). MarkTraversed runs twice per message (send side and
// arrival side), so the set is flat: up to kDenseMaxN nodes, one bitmap
// of N bits per node, the whole N x N block allocated lazily on the
// first mark (a mask-and-or per mark, 2 MB at the ceiling); past it, a
// PairMap set of (node, port) keys (pair_table.h).
class PortMapperBase : public PortMapper {
 public:
  explicit PortMapperBase(std::uint32_t n);

  std::uint32_t n() const override { return n_; }
  std::optional<Port> FreshPort(NodeId node) override;
  void MarkTraversed(NodeId node, Port port) override;

 protected:
  std::uint32_t n_;

 private:
  struct Traversed {};

  bool dense() const { return n_ <= kDenseMaxN; }
  bool Contains(NodeId node, Port port) const;
  // The sparse key; never 0, since ports start at 1.
  std::uint64_t Key(NodeId node, Port port) const {
    return static_cast<std::uint64_t>(node) * n_ + port;
  }

  // Dense: n_ bitmap words per node (port bit index == port number),
  // empty until the first mark.
  std::size_t words_per_node_ = 0;
  std::vector<std::uint64_t> bits_;
  PairMap<Traversed> sparse_;
  std::vector<Port> cursor_;  // smallest possibly-untraversed port
};

// Sense of direction: port == Hamiltonian distance.
class SodPortMapper : public PortMapperBase {
 public:
  explicit SodPortMapper(std::uint32_t n) : PortMapperBase(n) {}
  bool HasSenseOfDirection() const override { return true; }
  NodeId Resolve(NodeId node, Port port) override;
  Port PortToward(NodeId node, NodeId neighbor) override;
};

// No sense of direction: per-node pseudo-random permutation.
class RandomPortMapper : public PortMapperBase {
 public:
  RandomPortMapper(std::uint32_t n, std::uint64_t seed);
  bool HasSenseOfDirection() const override { return false; }
  NodeId Resolve(NodeId node, Port port) override;
  Port PortToward(NodeId node, NodeId neighbor) override;

 private:
  const FeistelPermutation& PermFor(NodeId node);
  std::uint64_t seed_;
  std::vector<std::unique_ptr<FeistelPermutation>> perms_;
};

std::unique_ptr<PortMapper> MakeSodMapper(std::uint32_t n);
std::unique_ptr<PortMapper> MakeRandomMapper(std::uint32_t n,
                                             std::uint64_t seed);

}  // namespace celect::sim
