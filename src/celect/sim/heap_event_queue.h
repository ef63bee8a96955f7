// The original binary-heap event queue, kept as the reference
// implementation the ladder queue's differential tests compare against
// (tests/test_event_queue.cpp).
//
// A binary heap over a flat vector that stamps every pushed event with a
// monotone sequence number, guaranteeing a total, reproducible order even
// among events scheduled for the same instant. Pop order — (at, seq)
// ascending — is exactly the ladder queue's, so the two can be diffed
// pop for pop.
//
// Take() removes an arbitrary element for controlled scheduling; the
// original re-heapified the whole vector with make_heap (O(n)) even when
// the removed element was the tail — it now refills the hole from the
// back and sifts the one displaced element up or down in O(log n).
#pragma once

#include <optional>
#include <vector>

#include "celect/sim/event.h"

namespace celect::sim {

class HeapEventQueue {
 public:
  // Schedules `body` at absolute time `at`. Returns the sequence number
  // assigned to the event.
  std::uint64_t Push(Time at, EventBody body);

  // Pops the earliest event; nullopt when empty.
  std::optional<Event> Pop();

  // Pending events in unspecified (heap) order. Valid until the next
  // mutation.
  const std::vector<Event>& events() const { return heap_; }

  // Removes and returns the pending event with sequence number `seq`
  // (CHECK-fails if absent). O(n) find + O(log n) removal — controlled
  // scheduling only.
  Event Take(std::uint64_t seq);

 private:
  // Restores the heap property around index `i` after its element was
  // replaced: sifts up if it beats its parent, down otherwise.
  void SiftFromHole(std::size_t i);

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace celect::sim
