// Reusable byte storage for datagrams.
//
// DatagramQueue is a session's outbox: datagrams packed end to end in
// one byte buffer. DatagramPool is SimNet's in-flight storage: one
// recycled fixed-size slot per datagram on the wire or in a node's
// inbox, carved from a few chunk allocations (a slab), with a length
// per slot and an out-of-line buffer for the rare longer datagram.
// Both keep their capacity when emptied and grow only when their
// high-water mark doubles, so once a run has warmed them up, encoding,
// queueing and carrying a datagram touch no heap.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "celect/util/check.h"

namespace celect::net {

class DatagramQueue {
 public:
  using Bytes = std::span<const std::uint8_t>;

  class Iterator {
   public:
    Iterator(const DatagramQueue* q, std::size_t i) : q_(q), i_(i) {}
    Bytes operator*() const { return (*q_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return i_ != o.i_; }

   private:
    const DatagramQueue* q_;
    std::size_t i_;
  };

  std::size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }
  Bytes operator[](std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return Bytes(bytes_.data() + begin, ends_[i] - begin);
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

  void clear() {
    bytes_.clear();
    ends_.clear();
  }
  // Room for `bytes` bytes in `datagrams` datagrams before any growth.
  void reserve(std::size_t bytes, std::size_t datagrams) {
    bytes_.reserve(bytes);
    ends_.reserve(datagrams);
  }

  // Appending one datagram: encode it onto the end of buffer(), then
  // Seal() it.
  std::vector<std::uint8_t>& buffer() { return bytes_; }
  void Seal() { ends_.push_back(bytes_.size()); }

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<std::size_t> ends_;  // one past each datagram's last byte
};

class DatagramPool {
 public:
  using Handle = std::uint32_t;

  // Copies bytes into a free slot. The handle, and the address of the
  // stored bytes, stay valid until Release, however many datagrams
  // are stored meanwhile.
  Handle Store(std::span<const std::uint8_t> bytes) {
    if (free_ == kNone) Grow();
    const Handle h = free_;
    Slot& s = slot(h);
    free_ = s.next_free;
    s.size = static_cast<std::uint32_t>(bytes.size());
    if (bytes.size() <= kSlotBytes) {
      std::copy(bytes.begin(), bytes.end(), s.bytes);
      return h;
    }
    if (s.spill == kNone) {
      s.spill = static_cast<std::uint32_t>(spills_.size());
      spills_.emplace_back();
    }
    spills_[s.spill].assign(bytes.begin(), bytes.end());
    return h;
  }
  std::span<std::uint8_t> bytes(Handle h) {
    Slot& s = slot(h);
    return {s.size <= kSlotBytes ? s.bytes : spills_[s.spill].data(),
            s.size};
  }
  std::span<const std::uint8_t> bytes(Handle h) const {
    const Slot& s = slot(h);
    return {s.size <= kSlotBytes ? s.bytes : spills_[s.spill].data(),
            s.size};
  }
  void Release(Handle h) {
    slot(h).next_free = free_;
    free_ = h;
  }

  // Slots made so far, free or in use.
  std::size_t slots() const { return made_; }

 private:
  // A slot keeps this many bytes inline: more than any frame the
  // sessions send short of a near-maximal packet. A longer datagram
  // goes to the slot's spill buffer, which the slot keeps for reuse.
  static constexpr std::size_t kSlotBytes = 128;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  // Chunk 0 holds kFirstChunk slots and chunk k > 0 holds
  // kFirstChunk << (k - 1), so each chunk doubles the slot count.
  static constexpr std::size_t kFirstChunk = 32;
  static constexpr std::size_t kMaxChunks = 24;

  struct Slot {
    std::uint32_t size;
    std::uint32_t next_free;  // the free list's link while unused
    std::uint32_t spill;      // index into spills_, or kNone
    std::uint8_t bytes[kSlotBytes];
  };

  Slot& slot(Handle h) const {
    const auto chunk =
        static_cast<std::size_t>(std::bit_width(h / kFirstChunk));
    const std::size_t first = chunk == 0 ? 0 : kFirstChunk << (chunk - 1);
    return chunks_[chunk][h - first];
  }

  // Adds the next chunk and threads its slots onto the free list.
  void Grow() {
    std::size_t chunk = 0;
    while (chunks_[chunk] != nullptr) ++chunk;
    CELECT_CHECK(chunk < kMaxChunks) << "datagram pool exhausted";
    const std::size_t count = chunk == 0 ? kFirstChunk : made_;
    chunks_[chunk] = std::make_unique_for_overwrite<Slot[]>(count);
    for (std::size_t i = 0; i < count; ++i) {
      Slot& s = chunks_[chunk][i];
      s.size = 0;
      s.next_free = i + 1 < count ? static_cast<Handle>(made_ + i + 1)
                                  : kNone;
      s.spill = kNone;
    }
    free_ = static_cast<Handle>(made_);
    made_ += count;
  }

  std::array<std::unique_ptr<Slot[]>, kMaxChunks> chunks_;
  std::vector<std::vector<std::uint8_t>> spills_;
  std::size_t made_ = 0;
  Handle free_ = kNone;  // head of the free list
};

}  // namespace celect::net
