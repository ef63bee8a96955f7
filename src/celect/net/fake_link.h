// Deterministic chaos for one datagram channel.
//
// FakeLink decides, under a seeded Rng, what the wire does to each
// datagram sent one way between two endpoints: it loses, duplicates,
// reorders (via extra delay), and corrupts (bit flips) traffic — so the
// full reliability stack is unit-testable bit-reproducibly without
// opening a socket. It keeps no datagrams: Admit hands every copy that
// survives, with its arrival time, to the caller, which stores and
// later delivers it. SimNet keeps one FakeLink per directed channel of
// its mesh and all their copies in one in-flight heap.
#pragma once

#include <cstdint>
#include <span>

#include "celect/net/clock.h"
#include "celect/util/rng.h"

namespace celect::net {

struct FakeLinkParams {
  double loss = 0.0;        // P(datagram silently dropped)
  double duplicate = 0.0;   // P(datagram delivered twice)
  double corrupt = 0.0;     // P(1..4 bit flips before delivery)
  double reorder = 0.0;     // P(datagram held back by reorder_extra)
  Micros delay_min = 500;   // per-datagram propagation delay range
  Micros delay_max = 3'000;
  Micros reorder_extra = 8'000;
  std::uint64_t seed = 1;  // SimNet derives one per channel from it
};

class FakeLink {
 public:
  // params must outlive the link, and may be shared by many links;
  // their seed is ignored in favour of `seed`, this link's own stream.
  FakeLink(const FakeLinkParams& params, std::uint64_t seed);

  // Draws the fate of dgram, sent at now. For each copy that survives,
  // arrive(dgram, at) stores the bytes for delivery at `at` and returns
  // the stored copy as a std::span<std::uint8_t>, which Admit may then
  // corrupt in place. The Rng draws come in a fixed order — loss, then
  // duplication, then per copy delay, reordering and corruption — so a
  // seed fixes every copy's fate.
  template <typename Arrive>
  void Admit(std::span<const std::uint8_t> dgram, Micros now,
             Arrive&& arrive) {
    if (params_->loss > 0 && rng_.NextDouble() < params_->loss) {
      ++lost_;
      return;
    }
    const bool dup =
        params_->duplicate > 0 && rng_.NextDouble() < params_->duplicate;
    Corrupt(arrive(dgram, now + Delay()));
    if (dup) Corrupt(arrive(dgram, now + Delay()));
  }

  std::uint64_t lost() const { return lost_; }

 private:
  // One copy's propagation delay, reordering included.
  Micros Delay();
  // Flips 1..4 bits of a stored copy, with probability params_->corrupt.
  void Corrupt(std::span<std::uint8_t> bytes);

  const FakeLinkParams* params_;
  Rng rng_;
  std::uint64_t lost_ = 0;
};

}  // namespace celect::net
