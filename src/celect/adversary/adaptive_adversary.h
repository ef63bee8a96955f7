// The §5 lower-bound adversary's port binding.
//
// Without sense of direction a node cannot distinguish its untraversed
// edges, so the adversary may decide — lazily, at first use — which
// neighbour each fresh edge leads to. The paper's construction
// (Theorem 5.1) has the adversary serve edges from Up_i = {i+1, ..., i+k}
// first, then Down_i = {i-1, ..., i-k}, keeping all nodes in the middle
// of the identity line in order-equivalent states: any protocol sending
// fewer than Nd = Nk/2 messages stays confined to local neighbourhoods,
// and stretched deliveries then force Ω(N/16d) running time.
//
// AdaptiveAdversaryMapper implements exactly that lazy binding; a
// pluggable strategy selects the neighbour, with UpFirst as the paper's
// choice. A node's never-bound ports are handed out in number order: a
// send on an unbound port must use the smallest one, and the adversary
// decides at that moment where it leads.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "celect/sim/port_mapper.h"
#include "celect/sim/types.h"

namespace celect::adversary {

// Given the node and a predicate telling which neighbours are still
// unbound at it, returns the neighbour the adversary routes the next
// fresh edge to.
using NeighborChooser = std::function<sim::NodeId(
    sim::NodeId node, const std::function<bool(sim::NodeId)>& unbound)>;

// The paper's strategy: Up_i first (ascending), then Down_i
// (descending), then everything else in ascending order. k is the
// neighbourhood radius (k = 2d for a message budget of Nd).
NeighborChooser UpFirstStrategy(std::uint32_t n, std::uint32_t k);

// Funnel strategy: every node's first fresh edge leads to `victim`
// (then ascending fallback). This concentrates all first captures on one
// node, whose owner then receives a pile of forwarded contests on a
// single link — the §4 congestion pathology that raw AG85 forwarding
// suffers and the Ɛ throttle fixes.
NeighborChooser FunnelStrategy(std::uint32_t n, sim::NodeId victim);

class AdaptiveAdversaryMapper : public sim::PortMapper {
 public:
  AdaptiveAdversaryMapper(std::uint32_t n, NeighborChooser chooser);

  std::uint32_t n() const override { return n_; }
  bool HasSenseOfDirection() const override { return false; }
  sim::NodeId Resolve(sim::NodeId node, sim::Port port) override;
  sim::Port PortToward(sim::NodeId node, sim::NodeId neighbor) override;

  // Diagnostics for the lower-bound experiment: how many distinct
  // neighbours each node actually communicated with, and the maximum
  // identity distance |i - j| over all bound edges.
  std::uint32_t BoundDegree(sim::NodeId node) const;
  std::uint32_t MaxBoundDistance() const { return max_distance_; }

 private:
  struct NodeState {
    std::unordered_map<sim::Port, sim::NodeId> port_to_neighbor;
    std::unordered_map<sim::NodeId, sim::Port> neighbor_to_port;
    sim::Port next_port = 1;  // smallest never-bound port number
  };

  sim::Port Bind(sim::NodeId node, sim::NodeId neighbor);

  std::uint32_t n_;
  NeighborChooser chooser_;
  std::vector<NodeState> state_;
  std::uint32_t max_distance_ = 0;
};

std::unique_ptr<AdaptiveAdversaryMapper> MakeUpFirstMapper(std::uint32_t n,
                                                           std::uint32_t k);

}  // namespace celect::adversary
