// Deterministic byte-pipe with seeded chaos.
//
// FakeLink is a unidirectional datagram channel that loses, duplicates,
// reorders (via extra delay), and corrupts (bit flips) traffic under a
// seeded Rng — so the full reliability stack is unit-testable
// bit-reproducibly without opening a socket. Two FakeLinks back to back
// make a duplex link; SimNet wires n*(n-1) of them into a mesh.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

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
  std::uint64_t seed = 1;
};

class FakeLink {
 public:
  explicit FakeLink(const FakeLinkParams& params);

  void Send(const std::uint8_t* data, std::size_t size, Micros now);
  void Send(const std::vector<std::uint8_t>& dgram, Micros now);

  // Earliest pending delivery, if any.
  std::optional<Micros> NextDelivery() const;

  // Moves every datagram due at or before now into out, in delivery
  // order (ties broken by send order — deterministically).
  void DeliverDue(Micros now, std::vector<std::vector<std::uint8_t>>& out);

  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t lost() const { return lost_; }
  std::uint64_t duplicated() const { return duplicated_; }
  std::uint64_t corrupted() const { return corrupted_; }
  std::uint64_t reordered() const { return reordered_; }

 private:
  struct InFlight {
    Micros at;
    std::uint64_t order;  // tie-break: monotone enqueue counter
    std::vector<std::uint8_t> bytes;
    bool operator<(const InFlight& o) const {
      return at != o.at ? at < o.at : order < o.order;
    }
  };

  void Enqueue(std::vector<std::uint8_t> bytes, Micros now);

  FakeLinkParams params_;
  Rng rng_;
  std::set<InFlight> in_flight_;
  std::uint64_t order_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t reordered_ = 0;
};

}  // namespace celect::net
