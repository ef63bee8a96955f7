// Deterministic priority event queue — ladder/timing-wheel edition.
//
// The simulator's previous queue was a binary heap over a flat vector of
// full Event values: every push sifted events (then ~100 bytes, each
// carrying a heap-allocated packet) through O(log n) moves, and past
// N≈128 the heap fell out of cache and throughput collapsed ~10x
// (BENCH_E7.json). This queue replaces it with a three-region ladder
// over an arena:
//
//   * events live once, in a pooled arena of 64-byte, cache-line-aligned
//     slots, and never move again; the regions shuffle 24-byte
//     {at, seq, slot} handles instead;
//   * L0 — the serving block: 4096 width-one-tick buckets covering the
//     4096-tick block that contains the current serve position. A bucket
//     holds same-instant events in push (= seq) order, so serving is a
//     linear scan with no comparisons;
//   * L1 — a 4096-block wheel (one bucket per 4096-tick block, ~16 sim
//     units of horizon) fed by direct pushes; a whole bucket moves into
//     L0 when serving reaches its block;
//   * far — a small binary min-heap of handles for events beyond the
//     wheel horizon (deep FIFO backlogs, long leases); drained into L0
//     block by block as serving catches up.
//
// Every L0/L1 bucket is a FIFO list of 16-handle chunks drawn from one
// queue-owned chunk pool. A bucket's head/tail words are meaningful only
// while its bit in the occupancy bitmap is set, so building a queue
// writes three 520-byte bitmaps and nothing per bucket, and destroying
// one frees or parks a handful of pool segments. Each bitmap keeps a
// summary word (bit w set iff word w is non-zero), so finding the next
// non-empty bucket is O(1) however far away it is. A bucket whose
// handles share one tick (the common case under unit delays) moves
// L1 -> L0 by copying or splicing its head/tail words; Pop hands each
// chunk back to the pool as it leaves it, so a wave's pushes reuse the
// chunks its pops emptied.
// The slot arena and the chunk pool both grow in doubling segments that
// start at 64 entries (64, 128, 256, ...): entries never move, a short
// run touches little memory, and a million-event peak costs no
// regrow copy. A pool that grew to segments of 1 MiB or more outlives
// its queue: it parks its segments in a process-wide table, one per
// size, and the next queue to reach a size takes the parked segment
// instead of mapping and faulting in fresh pages (see SegmentedPool).
//
// Slots are raw storage, one cache line each: an Event is 64 bytes and
// trivially destructible (sim/event.h), so a slot holds nothing else.
// An event is constructed once, in its slot, by Push, and Pop hands out
// a pointer to it rather than a copy: the slot stays occupied (state
// "popped") until the next Pop or Take recycles it, so the runtime
// dispatches straight from the arena. A one-byte state per slot (free,
// live, tombstone, popped) lives in a parallel byte arena, and a free
// slot keeps its free-list link in its own bytes. Nothing in a slot
// needs destroying, so neither recycling a slot nor destroying the
// queue visits slots.
//
// Total order is identical to the old heap: (at, seq) ascending, seq
// stamped monotonically at push. Buckets receive handles in seq order by
// construction: for any block, every far push precedes every L1 push,
// which precedes every L0 push (the block only gets nearer), and
// AdvanceBlock drains far before L1 — so no bucket ever needs a sort.
//
// Cancelled timers are lazy-deleted tombstones: Cancel() marks the slot
// a tombstone so Size()/PeekTime() see only live events (the live-count
// bugfix), but the event still pops in order and the runtime discards it
// at dispatch — bit-identical event accounting with the reference heap.
//
// Controlled scheduling (the analysis explorer) needs to dispatch pending
// events in an order of its own choosing rather than time order, so the
// queue also exposes the pending set (`events()`, a lazily rebuilt
// snapshot in unspecified order — callers must not assume anything beyond
// "these are the pending events") and removal of an arbitrary element
// (`Take`). Both are O(n) — exploration runs are tiny, the simulator's
// hot path never calls them.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "celect/sim/event.h"

namespace celect::sim {

// Handle to a pending (cancellable) event — returned by PushTicketed,
// consumed by Cancel. `slot` addresses the arena; `seq` guards against
// slot reuse.
struct EventTicket {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0xFFFFFFFFu;
};

// Occupancy bitmap over the 4096 buckets of one ladder region. Word w
// covers buckets [64w, 64w + 64); bit w of `summary_` is set iff word w
// is non-zero, so both searches cost two count-trailing-zeros however
// many empty buckets they pass.
class BucketBits {
 public:
  static constexpr std::size_t kBits = 4096;
  static constexpr std::size_t kNpos = ~std::size_t{0};

  void Set(std::size_t i) {
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
    summary_ |= std::uint64_t{1} << (i >> 6);
  }
  void Clear(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    w &= ~(std::uint64_t{1} << (i & 63));
    if (w == 0) summary_ &= ~(std::uint64_t{1} << (i >> 6));
  }
  bool Test(std::size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  // First set bit at index >= from, or kNpos.
  std::size_t Scan(std::size_t from) const {
    if (from >= kBits) return kNpos;
    const std::size_t w = from >> 6;
    const std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from & 63));
    if (word != 0) return (w << 6) + Ctz(word);
    // The non-empty words after w, if any.
    const std::uint64_t later =
        w == 63 ? 0 : summary_ & (~std::uint64_t{0} << (w + 1));
    if (later == 0) return kNpos;
    const std::size_t v = Ctz(later);
    return (v << 6) + Ctz(words_[v]);
  }
  // First set bit in circular order start, start + 1, ..., kBits - 1, 0,
  // ..., start - 1; kNpos when the bitmap is empty.
  std::size_t ScanCircular(std::size_t start) const {
    const std::size_t i = Scan(start);
    if (i != kNpos || summary_ == 0) return i;
    const std::size_t v = Ctz(summary_);
    return (v << 6) + Ctz(words_[v]);
  }

 private:
  static std::size_t Ctz(std::uint64_t x) {
    return static_cast<std::size_t>(std::countr_zero(x));
  }

  std::array<std::uint64_t, kBits / 64> words_{};
  std::uint64_t summary_ = 0;
};

// True iff T is one of EventBody's alternatives.
template <typename T, typename Body = EventBody>
inline constexpr bool kIsEventAlternative = false;
template <typename T, typename... Alts>
inline constexpr bool kIsEventAlternative<T, std::variant<Alts...>> =
    (std::is_same_v<T, Alts> || ...);

// A (possibly cv- or reference-qualified) EventBody alternative.
template <typename B>
concept EventAlternative = kIsEventAlternative<std::remove_cvref_t<B>>;

class EventQueue {
 public:
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `body` at absolute time `at` (non-negative ticks), building
  // the event in its arena slot: `body` is moved (or copied) once.
  // Returns the sequence number assigned to the event.
  template <EventAlternative B>
  std::uint64_t Push(Time at, B&& body) {
    return PushTicketed(at, std::forward<B>(body)).seq;
  }
  std::uint64_t Push(Time at, EventBody body) {
    return PushTicketed(at, std::move(body)).seq;
  }

  // Push that also returns a cancellation ticket (timers).
  template <EventAlternative B>
  EventTicket PushTicketed(Time at, B&& body) {
    using Alt = std::remove_cvref_t<B>;
    const std::uint32_t slot = ClaimSlot();
    Build(slot, at, std::in_place_type<Alt>, std::forward<B>(body));
    return Commit(slot);
  }
  EventTicket PushTicketed(Time at, EventBody body) {
    const std::uint32_t slot = ClaimSlot();
    Build(slot, at, std::move(body));
    return Commit(slot);
  }

  // Marks a pending event as a tombstone: it no longer counts toward
  // Size()/PeekTime(), but still pops in order (the runtime discards it
  // at dispatch — exactly the pre-ladder accounting, so fingerprints are
  // unchanged). No-op if the event already popped, including the one
  // Pop last returned.
  void Cancel(const EventTicket& t);

  // Pops the earliest pending event (tombstones included) and returns a
  // pointer to it in its arena slot; null when the queue is physically
  // empty. The caller borrows the event: the pointer stays valid, and
  // the event unchanged, until the next Pop or Take, which recycles the
  // slot. Pushes and cancels in between are fine. The popped event no
  // longer counts as pending anywhere (Size, Tombstones, events, Take).
  const Event* Pop();

  // Physically empty — no pending events, not even tombstones.
  bool Empty() const { return live_ + dead_ == 0; }
  // Live events only; cancelled-timer tombstones are excluded.
  std::size_t Size() const { return live_; }
  // Cancelled-but-unpopped events still occupying the queue.
  std::size_t Tombstones() const { return dead_; }

  // Earliest scheduled *live* event time (Size() must be > 0): a
  // cancelled far-future timer no longer pins the horizon. O(pending) —
  // diagnostic use, not a hot-path call.
  Time PeekTime() const;

  // Pending events (tombstones included, matching the reference heap) in
  // unspecified order. Lazily rebuilt snapshot; valid until the next
  // mutation. O(n) — controlled scheduling only.
  const std::vector<Event>& events() const;

  // Removes and returns the pending event with sequence number `seq`
  // (CHECK-fails if absent). O(n) — controlled scheduling only.
  Event Take(std::uint64_t seq);

 private:
  // One 4096-tick block per L0 window / L1 wheel bucket.
  static constexpr int kBlockBits = 12;
  static constexpr std::size_t kL0 = std::size_t{1} << kBlockBits;
  static constexpr std::size_t kL1 = std::size_t{1} << kBlockBits;
  static_assert(kL0 == BucketBits::kBits && kL1 == BucketBits::kBits);
  static constexpr std::size_t kNpos = BucketBits::kNpos;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNoChunk = 0xFFFFFFFFu;
  static constexpr std::uint32_t kChunkHandles = 16;

  struct Handle {
    std::int64_t at;  // ticks
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // What a slot's storage holds. Only live, tombstone and popped slots
  // hold a constructed Event; a free slot holds its free-list link.
  enum class SlotState : std::uint8_t { kFree, kLive, kTombstone, kPopped };
  static bool Pending(SlotState st) {
    return st == SlotState::kLive || st == SlotState::kTombstone;
  }

  // One cache line of raw storage. Trivial, so a new arena segment is
  // left uninitialised.
  struct alignas(64) Slot {
    std::byte raw[sizeof(Event)];

    Event& ev() { return *std::launder(reinterpret_cast<Event*>(raw)); }
    const Event& ev() const {
      return *std::launder(reinterpret_cast<const Event*>(raw));
    }
    // The free-list link, kept in the bytes of a free slot.
    std::uint32_t next_free() const {
      std::uint32_t n;
      std::memcpy(&n, raw, sizeof n);
      return n;
    }
    void set_next_free(std::uint32_t n) { std::memcpy(raw, &n, sizeof n); }
  };
  static_assert(sizeof(Slot) == 64 && alignof(Slot) == 64);
  static_assert(std::is_trivially_destructible_v<Event>);

  // One link of a bucket's FIFO list. Only the tail chunk of a list can
  // be partly filled, except where a uniform L1 bucket was spliced onto
  // an occupied L0 bucket, so every reader goes by `n`.
  struct Chunk {
    Handle h[kChunkHandles];
    std::uint32_t n;     // handles written
    std::uint32_t next;  // next chunk in the list (pool index) or kNoChunk
  };

  // A bucket's chunk list; meaningful only while the bucket's bit is set.
  struct List {
    std::uint32_t head;
    std::uint32_t tail;
  };

  // Indexed storage that grows in doubling segments of 64, 128, 256, ...
  // default-initialised entries: entries never move and indexing is
  // O(1). Entry i lives in segment s = bit_width(i + 64) - 7, at offset
  // (i + 64) minus the segment's base power of two.
  //
  // A large pool's segments are recycled process-wide. Each segment
  // index has one parking place per entry type. Grow takes the parked
  // segment, if any, before allocating; a pool that grew a segment of
  // kKeepBytes or more, or took one from a place, parks all of its
  // segments when it is destroyed (freeing those whose place is taken),
  // and any other pool frees its own. So at most one segment per size
  // stays allocated between queues, a queue as large as an earlier one
  // maps and faults in no new pages, and a process whose queues all stay
  // small never parks anything. Segments are raw storage: every entry is
  // written before it is read.
  template <typename T>
  class SegmentedPool {
   public:
    SegmentedPool() = default;
    SegmentedPool(const SegmentedPool&) = delete;
    SegmentedPool& operator=(const SegmentedPool&) = delete;
    ~SegmentedPool() {
      // Segments open in index order, so the first missing one ends it.
      for (std::size_t s = 0; s < kSegments && segs_[s] != nullptr; ++s) {
        T* empty = nullptr;
        if (!keep_ || !parked_[s].compare_exchange_strong(
                          empty, segs_[s], std::memory_order_release,
                          std::memory_order_relaxed)) {
          Free(segs_[s]);
        }
      }
    }

    T& operator[](std::uint32_t i) {
      const std::uint64_t j = std::uint64_t{i} + kFirst;
      const std::size_t s = Segment(j);
      return segs_[s][j - (std::uint64_t{1} << (kFirstBits + s))];
    }
    const T& operator[](std::uint32_t i) const {
      return (*const_cast<SegmentedPool*>(this))[i];
    }
    std::uint32_t size() const { return size_; }
    // Appends one entry and returns its index.
    std::uint32_t Grow() {
      const std::uint32_t i = size_++;
      const std::uint64_t j = std::uint64_t{i} + kFirst;
      // i opens a segment when j is its base, a power of two; the
      // segment's capacity equals its base.
      if (std::has_single_bit(j)) {
        const std::size_t s = Segment(j);
        T* const parked =
            parked_[s].exchange(nullptr, std::memory_order_acquire);
        keep_ = keep_ || parked != nullptr || s >= kFirstKept;
        segs_[s] = parked != nullptr ? parked : Allocate(j);
      }
      return i;
    }

   private:
    static constexpr int kFirstBits = 6;
    static constexpr std::uint64_t kFirst = std::uint64_t{1} << kFirstBits;
    // j = i + 64 < 2^33 for any 32-bit i.
    static constexpr std::size_t kSegments = 33 - kFirstBits;
    // Below this, blocks come from and go back to malloc's free lists,
    // which reuse them cheaply. From here up, glibc serves a block with
    // a mapping of its own, or trims it off the heap top, and returns its
    // pages on free, so each reuse would fault them in again. A large
    // pool parks its small segments too: freed between queues, they
    // drift into the holes other large blocks leave in the heap and
    // fragment it.
    static constexpr std::size_t kKeepBytes = std::size_t{1} << 20;
    static constexpr std::size_t kFirstKept = [] {
      std::size_t s = 0;
      while ((kFirst << s) * sizeof(T) < kKeepBytes) ++s;
      return s;
    }();
    static std::size_t Segment(std::uint64_t j) {
      return static_cast<std::size_t>(std::bit_width(j) - kFirstBits - 1);
    }

    // Uninitialised storage for `n` entries. Over-aligned entries (the
    // cache-line slots) are aligned by hand inside a plain block, whose
    // address is kept just before them: glibc's aligned allocation
    // carves each block out of a larger free chunk, and the offcuts it
    // frees grew a short election's heap by 4%.
    static constexpr bool kOverAligned =
        alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__;
    static T* Allocate(std::uint64_t n) {
      if constexpr (!kOverAligned) {
        return new T[n];
      } else {
        void* const block = ::operator new(n * sizeof(T) + alignof(T));
        // The block is aligned to the default new alignment, so at least
        // that much room, enough for its address, is left before the
        // entries.
        static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= sizeof(void*));
        const std::uintptr_t at =
            (reinterpret_cast<std::uintptr_t>(block) + alignof(T)) &
            ~std::uintptr_t{alignof(T) - 1};
        std::memcpy(reinterpret_cast<void*>(at - sizeof block), &block,
                    sizeof block);
        return std::launder(reinterpret_cast<T*>(at));
      }
    }
    static void Free(T* seg) {
      if constexpr (!kOverAligned) {
        delete[] seg;
      } else {
        void* block;
        std::memcpy(&block, reinterpret_cast<std::byte*>(seg) - sizeof block,
                    sizeof block);
        ::operator delete(block);
      }
    }

    // Constant-initialised and trivially destructible, so the table
    // costs no start-up or exit work; segments still parked at exit are
    // reachable from it.
    static_assert(std::is_trivially_destructible_v<std::atomic<T*>>);
    static inline std::atomic<T*> parked_[kSegments] = {};

    std::array<T*, kSegments> segs_ = {};
    std::uint32_t size_ = 0;
    // Park the segments on destruction.
    bool keep_ = false;
  };

  // Takes a slot off the free list (or grows the arena) for the next
  // push to construct its event in.
  std::uint32_t ClaimSlot();
  // Constructs the next seq's event in `slot`, its body straight from
  // `body_args`.
  template <typename... Args>
  void Build(std::uint32_t slot, Time at, Args&&... body_args) {
    ::new (static_cast<void*>(slots_[slot].raw))
        Event{at, next_seq_, EventBody(std::forward<Args>(body_args)...)};
  }
  // Stamps the event just built in `slot` live and files its handle.
  EventTicket Commit(std::uint32_t slot);
  // Frees an occupied slot.
  void Recycle(std::uint32_t slot);
  // Recycles the slot Pop last handed out, if any.
  void ReleasePopped() {
    if (popped_ != kNoSlot) {
      Recycle(popped_);
      popped_ = kNoSlot;
    }
  }
  // Un-counts an event leaving the pending set (pop or take).
  void Unpend(SlotState st);
  // Pending under `seq`: a handle with another seq is stale (its event
  // was taken and the slot reused, or the slot is free).
  bool Holds(std::uint32_t slot, std::uint64_t seq) const {
    return Pending(states_[slot]) && slots_[slot].ev().seq == seq;
  }
  bool HandleLive(const Handle& h) const {
    return states_[h.slot] == SlotState::kLive &&
           slots_[h.slot].ev().seq == h.seq;
  }

  // Takes a chunk from the pool's free list (or grows the pool), stores
  // `h` as its only handle and returns its index.
  std::uint32_t NewChunk(const Handle& h);
  void FreeChunk(std::uint32_t c) {
    chunks_[c].next = chunk_free_;
    chunk_free_ = c;
  }
  // Appends `h` after `tail`, the list's tail chunk, chaining a new chunk
  // when the tail is full.
  void Append(List& l, Chunk& tail, const Handle& h);
  // Earliest live handle in `l`, skipping the head chunk's first `from`
  // handles.
  std::optional<std::int64_t> EarliestLive(const List& l,
                                           std::uint32_t from) const;

  // Routes a handle into L0 / L1 / far based on its block.
  void Place(const Handle& h);
  void AppendL0(const Handle& h);
  // Moves serving to the next non-empty block (far drain + L1 move).
  // False when nothing is pending anywhere past the current block.
  bool AdvanceBlock();
  // Next pending L1 block in circular (time) order, if any.
  std::optional<std::uint64_t> NextL1Block() const;

  SegmentedPool<Slot> slots_;
  // Slot i's state; grows in step with slots_.
  SegmentedPool<SlotState> states_;
  std::uint32_t free_head_ = kNoSlot;
  // The slot Pop last returned (state kPopped), or kNoSlot.
  std::uint32_t popped_ = kNoSlot;
  SegmentedPool<Chunk> chunks_;
  std::uint32_t chunk_free_ = kNoChunk;

  // Bucket ends, left uninitialised: see List.
  std::unique_ptr<List[]> l0_;  // kL0 width-1-tick buckets
  std::unique_ptr<List[]> l1_;  // kL1 block buckets
  BucketBits l0_bits_;  // non-empty L0 buckets
  BucketBits l1_bits_;  // non-empty L1 buckets
  // L1 buckets holding more than one tick. The rest move into L0 whole.
  BucketBits l1_mixed_;
  std::vector<Handle> far_;  // min-heap by (at, seq)

  std::uint64_t cur_block_ = 0;   // block being served
  std::size_t cur_bucket_ = 0;    // L0 bucket being served
  // Head chunk of the bucket being served, or null before its first pop.
  Chunk* cur_chunk_ = nullptr;
  std::uint32_t cur_pos_ = 0;     // next handle within cur_chunk_

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;

  mutable std::vector<Event> snapshot_;
  mutable bool snapshot_dirty_ = true;
};

}  // namespace celect::sim
