// Complete-graph structure and sense-of-direction validation.
//
// Figure 1 of the paper shows a six-node complete network whose edges are
// labelled with Hamiltonian-cycle distances. CompleteGraph provides the
// structural view of such a network — edge count, labelling rules,
// and validators that check a PortMapper really implements a sense of
// direction (used by tests and the E1 bench).
#pragma once

#include <cstdint>
#include <string>

#include "celect/sim/port_mapper.h"
#include "celect/topo/ring_math.h"

namespace celect::topo {

class CompleteGraph {
 public:
  explicit CompleteGraph(std::uint32_t n);

  std::uint32_t n() const { return ring_.n(); }
  std::uint64_t edge_count() const;
  const RingMath& ring() const { return ring_; }

  // Checks that `mapper` is a consistent sense of direction:
  //  (1) port d at u leads to u[d];
  //  (2) complementary labels: if u sees v via port d, v sees u via
  //      port N-d;
  //  (3) ports 1..N-1 at each node reach all other nodes exactly once.
  // Returns an empty string when valid, else a description of the first
  // violation.
  std::string ValidateSenseOfDirection(celect::sim::PortMapper& mapper) const;

  // Checks that `mapper` is any consistent port assignment (bijection per
  // node, symmetric resolution) — holds for random mappers too.
  std::string ValidatePortAssignment(celect::sim::PortMapper& mapper) const;

  // ASCII rendering of the Figure-1 layout: each node with its forward
  // labels (only sensible for small N).
  std::string RenderFigure1(std::uint32_t max_nodes = 12) const;

 private:
  RingMath ring_;
};

}  // namespace celect::topo
