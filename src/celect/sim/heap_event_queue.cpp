#include "celect/sim/heap_event_queue.h"

#include <algorithm>
#include <utility>

#include "celect/util/check.h"

namespace celect::sim {

// GCC 12's -Wmaybe-uninitialized misfires on std::push_heap/pop_heap
// here: the algorithms hold a moved-to `__value` temporary, and the
// optimizer cannot prove the vector members inside Event's variant
// alternative were initialized before the move-assign writes them back
// (GCC PR 105562 family). Every element the algorithms touch is a fully
// constructed Event, so the warning is spurious.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

std::uint64_t HeapEventQueue::Push(Time at, EventBody body) {
  std::uint64_t seq = next_seq_++;
  heap_.push_back(Event{at, seq, std::move(body)});
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  return seq;
}

std::optional<Event> HeapEventQueue::Pop() {
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
  Event e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

void HeapEventQueue::SiftFromHole(std::size_t i) {
  const EventAfter after{};
  // Sift up while the element is earlier than its parent.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!after(heap_[parent], heap_[i])) break;
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
  // Then down while a child is earlier than the element.
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t best = i;
    const std::size_t l = 2 * i + 1;
    const std::size_t r = 2 * i + 2;
    if (l < n && after(heap_[best], heap_[l])) best = l;
    if (r < n && after(heap_[best], heap_[r])) best = r;
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

Event HeapEventQueue::Take(std::uint64_t seq) {
  auto it = std::find_if(heap_.begin(), heap_.end(),
                         [seq](const Event& e) { return e.seq == seq; });
  CELECT_CHECK(it != heap_.end()) << "Take: no pending event with seq "
                                  << seq;
  Event e = std::move(*it);
  const std::size_t hole = static_cast<std::size_t>(it - heap_.begin());
  *it = std::move(heap_.back());
  heap_.pop_back();
  if (hole < heap_.size()) SiftFromHole(hole);
  return e;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace celect::sim
