#include "celect/topo/complete_graph.h"

#include <sstream>
#include <vector>

#include "celect/util/check.h"

namespace celect::topo {

using celect::sim::NodeId;
using celect::sim::Port;

CompleteGraph::CompleteGraph(std::uint32_t n) : ring_(n) {}

std::uint64_t CompleteGraph::edge_count() const {
  std::uint64_t n = ring_.n();
  return n * (n - 1) / 2;
}

std::string CompleteGraph::ValidateSenseOfDirection(
    celect::sim::PortMapper& mapper) const {
  std::ostringstream err;
  const std::uint32_t n = ring_.n();
  if (mapper.n() != n) {
    err << "mapper size " << mapper.n() << " != " << n;
    return err.str();
  }
  if (!mapper.HasSenseOfDirection()) {
    return "mapper does not claim sense of direction";
  }
  for (NodeId u = 0; u < n; ++u) {
    for (Port d = 1; d <= n - 1; ++d) {
      NodeId v = mapper.Resolve(u, d);
      if (v != ring_.At(u, d)) {
        err << "port " << d << " at node " << u << " leads to " << v
            << ", expected " << ring_.At(u, d);
        return err.str();
      }
      Port back = mapper.PortToward(v, u);
      if (back != n - d) {
        err << "complementary label broken: " << u << " -(" << d << ")-> "
            << v << " but return port is " << back << ", expected "
            << (n - d);
        return err.str();
      }
    }
  }
  return "";
}

std::string CompleteGraph::ValidatePortAssignment(
    celect::sim::PortMapper& mapper) const {
  std::ostringstream err;
  const std::uint32_t n = ring_.n();
  for (NodeId u = 0; u < n; ++u) {
    std::vector<bool> reached(n, false);
    for (Port p = 1; p <= n - 1; ++p) {
      NodeId v = mapper.Resolve(u, p);
      if (v >= n || v == u) {
        err << "node " << u << " port " << p << " resolves to invalid " << v;
        return err.str();
      }
      if (reached[v]) {
        err << "node " << u << " reaches " << v << " via two ports";
        return err.str();
      }
      reached[v] = true;
      if (mapper.PortToward(u, v) != p) {
        err << "PortToward(" << u << ", " << v << ") != " << p;
        return err.str();
      }
    }
  }
  return "";
}

std::string CompleteGraph::RenderFigure1(std::uint32_t max_nodes) const {
  std::ostringstream os;
  const std::uint32_t n = ring_.n();
  CELECT_CHECK(n <= max_nodes)
      << "RenderFigure1 is only sensible for small networks";
  os << "Complete network with sense of direction, N=" << n << "\n";
  os << "Hamiltonian cycle: ";
  for (Position p = 0; p < n; ++p) os << p << " -> ";
  os << "0\n";
  for (Position u = 0; u < n; ++u) {
    os << "node " << u << ": ";
    for (Port d = 1; d <= n - 1; ++d) {
      os << "[" << d << "]->" << ring_.At(u, d);
      if (d < n - 1) os << "  ";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace celect::topo
