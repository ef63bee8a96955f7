// The original binary-heap event queue, kept as the reference
// implementation for the ladder queue's fingerprint-equivalence gate
// (RuntimeOptions::use_reference_queue, tests/test_queue_equivalence).
//
// A binary heap over a flat vector that stamps every pushed event with a
// monotone sequence number, guaranteeing a total, reproducible order even
// among events scheduled for the same instant. Pop order — (at, seq)
// ascending — is exactly the ladder queue's, so a run driven by either
// queue produces bit-identical results.
//
// Take() removes an arbitrary element for controlled scheduling; the
// original re-heapified the whole vector with make_heap (O(n)) even when
// the removed element was the tail — it now refills the hole from the
// back and sifts the one displaced element up or down in O(log n).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "celect/sim/event.h"
#include "celect/sim/event_queue.h"

namespace celect::sim {

class HeapEventQueue {
 public:
  // Schedules `body` at absolute time `at`. Returns the sequence number
  // assigned to the event.
  std::uint64_t Push(Time at, EventBody body);

  // Ticketed push for API parity with EventQueue. The reference heap
  // keeps no tombstone bookkeeping: Cancel is a no-op (cancelled timers
  // pop and are discarded at dispatch, which is also where the ladder's
  // accounting converges).
  EventTicket PushTicketed(Time at, EventBody body) {
    return EventTicket{Push(at, std::move(body)), 0};
  }
  void Cancel(const EventTicket&) {}

  // Pops the earliest event; nullopt when empty.
  std::optional<Event> Pop();

  bool Empty() const { return heap_.empty(); }

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

// The runtime's queue: the ladder by default, the reference heap when
// RuntimeOptions::use_reference_queue asks for it (equivalence tests,
// bisecting a suspected queue bug). Only the selected backend is built;
// each call is one predictable branch. Both backends produce the same
// (at, seq) pop order, so the choice never changes a run's result, only
// its speed.
class DualQueue {
 public:
  explicit DualQueue(bool use_reference) {
    if (use_reference) {
      ref_.emplace();
    } else {
      ladder_.emplace();
    }
  }

  template <typename B>
  std::uint64_t Push(Time at, B&& body) {
    return ladder_ ? ladder_->Push(at, std::forward<B>(body))
                   : ref_->Push(at, EventBody(std::forward<B>(body)));
  }
  template <typename B>
  EventTicket PushTicketed(Time at, B&& body) {
    return ladder_ ? ladder_->PushTicketed(at, std::forward<B>(body))
                   : ref_->PushTicketed(at, EventBody(std::forward<B>(body)));
  }
  void Cancel(const EventTicket& t) {
    return ladder_ ? ladder_->Cancel(t) : ref_->Cancel(t);
  }
  // The ladder's borrowed-pop contract for both backends: the event
  // stays valid until the next Pop or Take.
  const Event* Pop() {
    if (ladder_) return ladder_->Pop();
    ref_popped_ = ref_->Pop();
    return ref_popped_ ? &*ref_popped_ : nullptr;
  }
  bool Empty() const { return ladder_ ? ladder_->Empty() : ref_->Empty(); }
  const std::vector<Event>& events() const {
    return ladder_ ? ladder_->events() : ref_->events();
  }
  Event Take(std::uint64_t seq) {
    return ladder_ ? ladder_->Take(seq) : ref_->Take(seq);
  }

 private:
  // Exactly one is engaged.
  std::optional<EventQueue> ladder_;
  std::optional<HeapEventQueue> ref_;
  // The reference heap's last popped event, lent out by Pop.
  std::optional<Event> ref_popped_;
};

}  // namespace celect::sim
