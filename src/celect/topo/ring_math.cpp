#include "celect/topo/ring_math.h"

#include "celect/util/check.h"

namespace celect::topo {

RingMath::RingMath(std::uint32_t n) : n_(n) {
  CELECT_CHECK(n >= 2) << "ring needs at least two nodes";
}

Position RingMath::At(Position pos, Distance d) const {
  CELECT_DCHECK(pos < n_);
  return static_cast<Position>(
      (static_cast<std::uint64_t>(pos) + d) % n_);
}

std::uint32_t RingMath::FloorPow2(std::uint32_t x) {
  CELECT_CHECK(x >= 1);
  std::uint32_t p = 1;
  while (p <= x / 2) p *= 2;
  return p;
}

std::uint32_t RingMath::FloorLog2(std::uint32_t x) {
  CELECT_CHECK(x >= 1);
  std::uint32_t l = 0;
  while (x > 1) {
    x /= 2;
    ++l;
  }
  return l;
}

std::uint32_t RingMath::CeilLog2(std::uint32_t x) {
  CELECT_CHECK(x >= 1);
  return x == 1 ? 0 : FloorLog2(x - 1) + 1;
}

std::uint32_t RingMath::ProtocolCStride(std::uint32_t n) {
  CELECT_CHECK(n >= 4);
  CELECT_CHECK((n & (n - 1)) == 0) << "protocol C assumes N = 2^r";
  std::uint32_t log_n = FloorLog2(n);
  std::uint32_t log_log = CeilLog2(log_n);
  std::uint32_t divisor = 1u << log_log;  // 2^⌈log log N⌉ ≈ log N
  CELECT_CHECK(divisor < n);
  return n / divisor;  // k = N / 2^⌈log log N⌉, a power of two
}

}  // namespace celect::topo
