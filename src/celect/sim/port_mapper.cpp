#include "celect/sim/port_mapper.h"

#include "celect/util/check.h"
#include "celect/util/rng.h"

namespace celect::sim {

PortMapperBase::PortMapperBase(std::uint32_t n) : n_(n), cursor_(n, 1) {
  CELECT_CHECK(n >= 2);
  if (dense()) words_per_node_ = (n_ + 63) / 64;
}

bool PortMapperBase::Contains(NodeId node, Port port) const {
  if (dense()) {
    if (bits_.empty()) return false;
    const std::uint64_t w = bits_[node * words_per_node_ + (port >> 6)];
    return (w >> (port & 63)) & 1;
  }
  return sparse_.Find(Key(node, port)) != nullptr;
}

std::optional<Port> PortMapperBase::FreshPort(NodeId node) {
  CELECT_DCHECK(node < n_);
  Port& c = cursor_[node];
  while (c <= n_ - 1 && Contains(node, c)) ++c;
  if (c > n_ - 1) return std::nullopt;
  return c;
}

void PortMapperBase::MarkTraversed(NodeId node, Port port) {
  CELECT_DCHECK(node < n_);
  CELECT_DCHECK(port >= 1 && port <= n_ - 1);
  if (dense()) {
    if (bits_.empty()) {
      bits_.resize(static_cast<std::size_t>(n_) * words_per_node_, 0);
    }
    bits_[node * words_per_node_ + (port >> 6)] |=
        std::uint64_t{1} << (port & 63);
    return;
  }
  sparse_.Obtain(Key(node, port));
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
    : PortMapperBase(n), seed_(seed), perms_(n) {}

const FeistelPermutation& RandomPortMapper::PermFor(NodeId node) {
  auto& p = perms_[node];
  if (!p) {
    SplitMix64 sm(seed_ ^ (0x9e3779b97f4a7c15ULL * (node + 1)));
    p = std::make_unique<FeistelPermutation>(n_ - 1, sm.Next());
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
