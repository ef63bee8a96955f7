#include "celect/sim/port_mapper.h"

#include "celect/util/check.h"
#include "celect/util/rng.h"

namespace celect::sim {

SodPortMapper::SodPortMapper(std::uint32_t n) : n_(n) {
  CELECT_CHECK(n >= 2);
}

NodeId SodPortMapper::Resolve(NodeId node, Port port) {
  CELECT_DCHECK(node < n_);
  CELECT_CHECK(port >= 1 && port <= n_ - 1)
      << "port " << port << " out of range for N=" << n_;
  return static_cast<NodeId>(
      (static_cast<std::uint64_t>(node) + port) % n_);
}

Port SodPortMapper::PortToward(NodeId node, NodeId neighbor) {
  CELECT_DCHECK(node < n_ && neighbor < n_ && node != neighbor);
  return neighbor >= node ? neighbor - node : n_ - (node - neighbor);
}

RandomPortMapper::RandomPortMapper(std::uint32_t n, std::uint64_t seed)
    : n_(n), seed_(seed), perms_(n) {
  CELECT_CHECK(n >= 2);
}

const FeistelPermutation& RandomPortMapper::PermFor(NodeId node) {
  std::optional<FeistelPermutation>& p = perms_[node];
  if (!p) {
    SplitMix64 sm(seed_ ^ (0x9e3779b97f4a7c15ULL * (node + 1)));
    p.emplace(n_ - 1, sm.Next());
  }
  return *p;
}

NodeId RandomPortMapper::Resolve(NodeId node, Port port) {
  CELECT_CHECK(port >= 1 && port <= n_ - 1);
  std::uint64_t x = PermFor(node).Encrypt(port - 1);  // in [0, N-2]
  NodeId neighbor = static_cast<NodeId>(x < node ? x : x + 1);  // skip self
  return neighbor;
}

Port RandomPortMapper::PortToward(NodeId node, NodeId neighbor) {
  CELECT_DCHECK(node != neighbor && neighbor < n_);
  std::uint64_t x = neighbor < node ? neighbor : neighbor - 1;
  return static_cast<Port>(PermFor(node).Decrypt(x) + 1);
}

std::unique_ptr<PortMapper> MakeSodMapper(std::uint32_t n) {
  return std::make_unique<SodPortMapper>(n);
}

std::unique_ptr<PortMapper> MakeRandomMapper(std::uint32_t n,
                                             std::uint64_t seed) {
  return std::make_unique<RandomPortMapper>(n, seed);
}

}  // namespace celect::sim
