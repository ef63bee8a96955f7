// Deterministic byte-pipe with seeded chaos.
//
// FakeLink is a unidirectional datagram channel that loses, duplicates,
// reorders (via extra delay), and corrupts (bit flips) traffic under a
// seeded Rng — so the full reliability stack is unit-testable
// bit-reproducibly without opening a socket. Two FakeLinks back to back
// make a duplex link; SimNet wires n*(n-1) of them into a mesh.
//
// Datagram bytes live in a DatagramPool the link's owner provides (one
// per SimNet, shared by every channel); the link keeps only a vector
// min-heap of (arrival time, send order, slot handle).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "celect/net/clock.h"
#include "celect/net/datagram.h"
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
  // pool must outlive the link; it keeps what is in flight.
  FakeLink(const FakeLinkParams& params, DatagramPool& pool);

  void Send(std::span<const std::uint8_t> dgram, Micros now);

  // Earliest pending delivery, if any.
  std::optional<Micros> NextDelivery() const;

  // Appends the pool handle of every datagram due at or before now to
  // out, in delivery order (ties broken by send order —
  // deterministically). The caller takes each handle over and releases
  // it to the pool once it has read the bytes.
  void DeliverDue(Micros now, std::vector<DatagramPool::Handle>& out);

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t lost() const { return lost_; }

 private:
  struct InFlight {
    Micros at;
    std::uint64_t order;  // tie-break: monotone enqueue counter
    DatagramPool::Handle dgram;
  };
  // Heap order: the earliest (at, order) on top.
  static bool Later(const InFlight& a, const InFlight& b) {
    return a.at != b.at ? a.at > b.at : a.order > b.order;
  }

  void Enqueue(std::span<const std::uint8_t> dgram, Micros now);

  FakeLinkParams params_;
  Rng rng_;
  DatagramPool* pool_;
  std::vector<InFlight> in_flight_;  // min-heap under Later
  std::uint64_t order_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace celect::net
