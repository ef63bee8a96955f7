#include "celect/adversary/adaptive_adversary.h"

#include <algorithm>
#include <cstdlib>

#include "celect/util/check.h"

namespace celect::adversary {

using sim::NodeId;
using sim::Port;

NeighborChooser UpFirstStrategy(std::uint32_t n, std::uint32_t k) {
  CELECT_CHECK(k >= 1);
  return [n, k](NodeId node,
                const std::function<bool(NodeId)>& unbound) -> NodeId {
    // Up_i: i+1 .. i+k (no wraparound — §5 uses the linear identity
    // order).
    for (std::uint32_t d = 1; d <= k; ++d) {
      std::uint64_t v = static_cast<std::uint64_t>(node) + d;
      if (v < n && unbound(static_cast<NodeId>(v))) {
        return static_cast<NodeId>(v);
      }
    }
    // Down_i: i-1 .. i-k.
    for (std::uint32_t d = 1; d <= k; ++d) {
      if (node >= d && unbound(node - d)) return node - d;
    }
    // Fallback: smallest unbound identity.
    for (NodeId v = 0; v < n; ++v) {
      if (v != node && unbound(v)) return v;
    }
    CELECT_CHECK(false) << "no unbound neighbour left at node " << node;
    std::abort();
  };
}

NeighborChooser RandomStrategy(std::uint32_t n, std::uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  return [n, rng](NodeId node,
                  const std::function<bool(NodeId)>& unbound) -> NodeId {
    // Rejection-sample first (fast while the graph is sparse), then scan.
    for (int tries = 0; tries < 32; ++tries) {
      NodeId v = static_cast<NodeId>(rng->NextBelow(n));
      if (v != node && unbound(v)) return v;
    }
    std::vector<NodeId> avail;
    for (NodeId v = 0; v < n; ++v) {
      if (v != node && unbound(v)) avail.push_back(v);
    }
    CELECT_CHECK(!avail.empty());
    return avail[rng->NextBelow(avail.size())];
  };
}

NeighborChooser FunnelStrategy(std::uint32_t n, sim::NodeId victim) {
  CELECT_CHECK(victim < n);
  return [n, victim](NodeId node,
                     const std::function<bool(NodeId)>& unbound) -> NodeId {
    if (node != victim && unbound(victim)) return victim;
    for (NodeId v = 0; v < n; ++v) {
      if (v != node && unbound(v)) return v;
    }
    CELECT_CHECK(false) << "no unbound neighbour left at node " << node;
    std::abort();
  };
}

AdaptiveAdversaryMapper::AdaptiveAdversaryMapper(std::uint32_t n,
                                                 NeighborChooser chooser)
    : n_(n), chooser_(std::move(chooser)), state_(n) {
  CELECT_CHECK(n >= 2);
}

Port AdaptiveAdversaryMapper::Bind(NodeId node, NodeId neighbor) {
  NodeState& s = state_[node];
  CELECT_DCHECK(!s.neighbor_to_port.count(neighbor));
  Port port = s.next_port++;
  CELECT_CHECK(port <= n_ - 1) << "node " << node << " out of ports";
  s.port_to_neighbor[port] = neighbor;
  s.neighbor_to_port[neighbor] = port;
  std::uint32_t dist = node > neighbor ? node - neighbor : neighbor - node;
  max_distance_ = std::max(max_distance_, dist);
  return port;
}

NodeId AdaptiveAdversaryMapper::Resolve(NodeId node, Port port) {
  CELECT_CHECK(node < n_ && port >= 1 && port <= n_ - 1);
  NodeState& s = state_[node];
  auto it = s.port_to_neighbor.find(port);
  if (it != s.port_to_neighbor.end()) return it->second;
  // A send on a never-bound port: the adversary picks where it goes.
  // Ports are handed out in order, so an unbound port must be the next
  // to allocate.
  CELECT_CHECK(port == s.next_port)
      << "node " << node << " sent on unbound port " << port
      << " (next allocatable is " << s.next_port << ")";
  NodeId neighbor = chooser_(
      node, [&s](NodeId v) { return !s.neighbor_to_port.count(v); });
  CELECT_DCHECK(neighbor < n_ && neighbor != node);
  Bind(node, neighbor);
  return neighbor;
}

Port AdaptiveAdversaryMapper::PortToward(NodeId node, NodeId neighbor) {
  CELECT_CHECK(node < n_ && neighbor < n_ && node != neighbor);
  NodeState& s = state_[node];
  auto it = s.neighbor_to_port.find(neighbor);
  if (it != s.neighbor_to_port.end()) return it->second;
  return Bind(node, neighbor);
}

std::optional<Port> AdaptiveAdversaryMapper::FreshPort(NodeId node) {
  CELECT_CHECK(node < n_);
  const NodeState& s = state_[node];
  // Fresh = untraversed in either direction. Arrivals bind and traverse
  // their port, so every never-allocated port is fresh, and those are
  // exactly where the adversary still has freedom.
  if (s.next_port <= n_ - 1) return s.next_port;
  return std::nullopt;
}

std::uint32_t AdaptiveAdversaryMapper::BoundDegree(NodeId node) const {
  CELECT_CHECK(node < n_);
  return static_cast<std::uint32_t>(
      state_[node].port_to_neighbor.size());
}

std::unique_ptr<AdaptiveAdversaryMapper> MakeUpFirstMapper(std::uint32_t n,
                                                           std::uint32_t k) {
  return std::make_unique<AdaptiveAdversaryMapper>(n, UpFirstStrategy(n, k));
}

}  // namespace celect::adversary
