// Per-pair storage for LinkTable, which keeps state per directed
// (from, to) link and is probed on every send.
//
// LinkTable serves N <= kDenseMaxN from its own flat N x N layout — one
// indexed load per probe, no hashing — and larger N from a PairMap, so
// memory stays O(pairs actually used): a million-node protocol-C run
// touches O(N log N) pairs, not N².
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "celect/util/check.h"
#include "celect/util/rng.h"

namespace celect::sim {

// Largest N served by LinkTable's dense layout: its N² x 16 B
// tops out at 256 MB here, the deliberate ceiling.
inline constexpr std::uint32_t kDenseMaxN = 4096;

// An open-addressing map from a nonzero 64-bit pair key to a Value
// (0 marks an empty slot): power-of-two capacity, linear probing from
// SplitMix64 of the key, doubled at 3/4 load.
template <typename Value>
class PairMap {
 public:
  // The value under `key`, value-initialised on first use. The reference
  // is valid until the next Obtain of a different key (growth moves
  // every entry).
  Value& Obtain(std::uint64_t key) {
    CELECT_DCHECK(key != 0);
    if (slots_.empty()) slots_.resize(kFirstCapacity);
    if (used_ * 4 >= slots_.size() * 3) Grow();
    Entry& e = slots_[Probe(slots_, key)];
    if (e.key == 0) {
      e.key = key;
      ++used_;
    }
    return e.value;
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    Value value{};
  };
  static constexpr std::size_t kFirstCapacity = 1024;

  // The slot holding `key`, or the empty slot where it belongs.
  static std::size_t Probe(const std::vector<Entry>& slots,
                           std::uint64_t key) {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = static_cast<std::size_t>(SplitMix64(key).Next()) & mask;
    while (slots[i].key != key && slots[i].key != 0) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<Entry> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Entry& e : old) {
      if (e.key != 0) slots_[Probe(slots_, e.key)] = e;
    }
  }

  std::vector<Entry> slots_;
  std::size_t used_ = 0;
};

}  // namespace celect::sim
