#include "celect/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "celect/util/check.h"

namespace celect::sim {

namespace {

// Min-heap ordering for the far region: earliest (at, seq) on top.
struct HandleAfterFar {
  template <typename H>
  bool operator()(const H& a, const H& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace

EventQueue::EventQueue()
    : l0_(std::make_unique_for_overwrite<List[]>(kL0)),
      l1_(std::make_unique_for_overwrite<List[]>(kL1)) {}

std::uint32_t EventQueue::ClaimSlot() {
  if (free_head_ == kNoSlot) {
    const std::uint32_t i = slots_.Grow();
    states_.Grow();
    return i;
  }
  const std::uint32_t i = free_head_;
  free_head_ = slots_[i].next_free();
  return i;
}

EventTicket EventQueue::Commit(std::uint32_t slot) {
  const std::uint64_t seq = next_seq_++;
  states_[slot] = SlotState::kLive;
  Place(Handle{slots_[slot].ev().at.ticks(), seq, slot});
  ++live_;
  snapshot_dirty_ = true;
  return EventTicket{seq, slot};
}

void EventQueue::Recycle(std::uint32_t slot) {
  states_[slot] = SlotState::kFree;
  slots_[slot].set_next_free(free_head_);
  free_head_ = slot;
}

void EventQueue::Unpend(SlotState st) {
  if (st == SlotState::kTombstone) {
    CELECT_DCHECK(dead_ > 0);
    --dead_;
  } else {
    CELECT_DCHECK(live_ > 0);
    --live_;
  }
  snapshot_dirty_ = true;
}

std::uint32_t EventQueue::NewChunk(const Handle& h) {
  std::uint32_t c = chunk_free_;
  if (c != kNoChunk) {
    chunk_free_ = chunks_[c].next;
  } else {
    c = chunks_.Grow();
  }
  Chunk& k = chunks_[c];
  k.h[0] = h;
  k.n = 1;
  k.next = kNoChunk;
  return c;
}

void EventQueue::Append(List& l, Chunk& tail, const Handle& h) {
  if (tail.n < kChunkHandles) {
    tail.h[tail.n++] = h;
    return;
  }
  tail.next = NewChunk(h);
  l.tail = tail.next;
}

void EventQueue::AppendL0(const Handle& h) {
  const std::size_t idx = static_cast<std::size_t>(h.at) & (kL0 - 1);
  List& l = l0_[idx];
  if (l0_bits_.Test(idx)) {
    Append(l, chunks_[l.tail], h);
  } else {
    l.head = l.tail = NewChunk(h);
    l0_bits_.Set(idx);
  }
}

void EventQueue::Place(const Handle& h) {
  CELECT_DCHECK(h.at >= 0) << "event scheduled at negative time";
  const std::uint64_t blk = static_cast<std::uint64_t>(h.at) >> kBlockBits;
  if (blk == cur_block_) {
    AppendL0(h);
    return;
  }
  CELECT_DCHECK(blk > cur_block_) << "push into an already-served block";
  if (blk - cur_block_ <= kL1) {
    const std::size_t idx = static_cast<std::size_t>(blk & (kL1 - 1));
    List& l = l1_[idx];
    if (!l1_bits_.Test(idx)) {
      l.head = l.tail = NewChunk(h);
      l1_bits_.Set(idx);
      return;
    }
    Chunk& tail = chunks_[l.tail];
    // The bucket holds one tick while every handle matches the one
    // before it.
    if (tail.h[tail.n - 1].at != h.at) l1_mixed_.Set(idx);
    Append(l, tail, h);
    return;
  }
  far_.push_back(h);
  std::push_heap(far_.begin(), far_.end(), HandleAfterFar{});
}

void EventQueue::Cancel(const EventTicket& t) {
  if (t.slot >= slots_.size()) return;
  // Already popped, cancelled or taken, or the slot was reused.
  if (states_[t.slot] != SlotState::kLive ||
      slots_[t.slot].ev().seq != t.seq) {
    return;
  }
  states_[t.slot] = SlotState::kTombstone;
  CELECT_DCHECK(live_ > 0);
  --live_;
  ++dead_;
}

std::optional<std::uint64_t> EventQueue::NextL1Block() const {
  // The wheel holds blocks (cur_block_, cur_block_ + kL1]; scan ring
  // indices in that circular order and map the first hit back to its
  // absolute block.
  const std::size_t idx = l1_bits_.ScanCircular(
      static_cast<std::size_t>((cur_block_ + 1) & (kL1 - 1)));
  if (idx == kNpos) return std::nullopt;
  const std::uint64_t base = cur_block_ & ~static_cast<std::uint64_t>(kL1 - 1);
  std::uint64_t blk = base + idx;
  if (blk <= cur_block_) blk += kL1;
  return blk;
}

bool EventQueue::AdvanceBlock() {
  const std::optional<std::uint64_t> lb = NextL1Block();
  std::optional<std::uint64_t> fb;
  if (!far_.empty()) {
    fb = static_cast<std::uint64_t>(far_.front().at) >> kBlockBits;
  }
  if (!lb && !fb) return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t b = std::min(lb.value_or(kMax), fb.value_or(kMax));
  CELECT_DCHECK(b > cur_block_);
  cur_block_ = b;
  cur_bucket_ = 0;
  cur_chunk_ = nullptr;
  cur_pos_ = 0;
  // Far first: its handles for block b were all pushed while b lay past
  // the wheel, so before any of b's L1 handles.
  while (!far_.empty() &&
         (static_cast<std::uint64_t>(far_.front().at) >> kBlockBits) == b) {
    std::pop_heap(far_.begin(), far_.end(), HandleAfterFar{});
    const Handle h = far_.back();
    far_.pop_back();
    if (!Holds(h.slot, h.seq)) continue;  // taken; drop stale
    AppendL0(h);
  }
  if (lb && *lb == b) {
    const std::size_t idx = static_cast<std::size_t>(b & (kL1 - 1));
    const List src = l1_[idx];
    if (!l1_mixed_.Test(idx)) {
      // One instant, in seq order: the whole list becomes (or extends)
      // that instant's L0 bucket with no per-handle copying. Stale
      // (taken) handles ride along; Pop skips them by seq.
      const std::size_t l0i =
          static_cast<std::size_t>(chunks_[src.head].h[0].at) & (kL0 - 1);
      List& dst = l0_[l0i];
      if (l0_bits_.Test(l0i)) {
        chunks_[dst.tail].next = src.head;
        dst.tail = src.tail;
      } else {
        dst = src;
        l0_bits_.Set(l0i);
      }
    } else {
      for (std::uint32_t c = src.head; c != kNoChunk;) {
        const Chunk& k = chunks_[c];
        for (std::uint32_t i = 0; i < k.n; ++i) {
          const Handle& h = k.h[i];
          if (!Holds(h.slot, h.seq)) continue;  // taken; stale
          AppendL0(h);
        }
        const std::uint32_t next = k.next;
        FreeChunk(c);
        c = next;
      }
      l1_mixed_.Clear(idx);
    }
    l1_bits_.Clear(idx);
  }
  return true;
}

const Event* EventQueue::Pop() {
  ReleasePopped();
  for (;;) {
    if (Chunk* const k = cur_chunk_) {
      while (cur_pos_ < k->n) {
        const Handle h = k->h[cur_pos_++];
        // Pull the next slot toward the caches while the caller dispatches
        // this event — same-instant slots are not generally adjacent.
        if (cur_pos_ < k->n) {
          __builtin_prefetch(&slots_[k->h[cur_pos_].slot], 1, 1);
        }
        if (!Holds(h.slot, h.seq)) continue;  // taken; stale handle
        SlotState& st = states_[h.slot];
        Unpend(st);
        st = SlotState::kPopped;
        popped_ = h.slot;
        return &slots_[h.slot].ev();
      }
      // The head chunk is spent: hand it back, then serve the next one.
      // A bucket ends only when a pop finds nothing after its last
      // handle, so same-instant pushes made in between still land here.
      List& l = l0_[cur_bucket_];
      const std::uint32_t next = k->next;
      FreeChunk(l.head);
      cur_pos_ = 0;
      if (next != kNoChunk) {
        l.head = next;
        cur_chunk_ = &chunks_[next];
        continue;
      }
      l0_bits_.Clear(cur_bucket_);
      cur_chunk_ = nullptr;
    }
    const std::size_t next = l0_bits_.Scan(cur_bucket_);
    if (next == kNpos) {
      if (!AdvanceBlock()) return nullptr;
      continue;
    }
    cur_bucket_ = next;
    cur_chunk_ = &chunks_[l0_[next].head];
  }
}

std::optional<std::int64_t> EventQueue::EarliestLive(
    const List& l, std::uint32_t from) const {
  std::optional<std::int64_t> best;
  for (std::uint32_t c = l.head; c != kNoChunk; from = 0) {
    const Chunk& k = chunks_[c];
    for (std::uint32_t i = from; i < k.n; ++i) {
      if (HandleLive(k.h[i]) && (!best || k.h[i].at < *best)) {
        best = k.h[i].at;
      }
    }
    c = k.next;
  }
  return best;
}

Time EventQueue::PeekTime() const {
  CELECT_CHECK(Size() > 0) << "PeekTime on a queue with no live events";
  // L0: buckets are single instants in time order — the first bucket with
  // a live handle holds the earliest.
  for (std::size_t i = l0_bits_.Scan(cur_bucket_); i != kNpos;
       i = l0_bits_.Scan(i + 1)) {
    const std::uint32_t from =
        i == cur_bucket_ && cur_chunk_ != nullptr ? cur_pos_ : 0;
    if (const auto at = EarliestLive(l0_[i], from)) {
      return Time::FromTicks(*at);
    }
  }
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  // L1: blocks in circular (time) order; the first block with a live
  // handle bounds every later block, but the far heap may still undercut
  // it, so keep scanning far below.
  const std::size_t start =
      static_cast<std::size_t>((cur_block_ + 1) & (kL1 - 1));
  for (std::size_t step = 0; step < kL1; ++step) {
    const std::size_t idx = (start + step) & (kL1 - 1);
    if (!l1_bits_.Test(idx)) continue;
    if (const auto at = EarliestLive(l1_[idx], 0)) {
      best = *at;
      break;
    }
  }
  for (const Handle& h : far_) {
    if (HandleLive(h) && h.at < best) best = h.at;
  }
  CELECT_CHECK(best != std::numeric_limits<std::int64_t>::max());
  return Time::FromTicks(best);
}

const std::vector<Event>& EventQueue::events() const {
  if (snapshot_dirty_) {
    snapshot_.clear();
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if (Pending(states_[i])) snapshot_.push_back(slots_[i].ev());
    }
    snapshot_dirty_ = false;
  }
  return snapshot_;
}

Event EventQueue::Take(std::uint64_t seq) {
  ReleasePopped();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (!Holds(i, seq)) continue;
    Unpend(states_[i]);
    const Event e = slots_[i].ev();
    Recycle(i);
    return e;
  }
  CELECT_CHECK(false) << "Take: no pending event with seq " << seq;
  __builtin_unreachable();
}

}  // namespace celect::sim
