// Reusable byte storage for datagrams.
//
// DatagramQueue is a session's outbox: datagrams packed end to end in
// one byte buffer. DatagramPool is SimNet's in-flight storage: one
// recycled slot per datagram on a FakeLink or in a node's inbox. Both
// keep their capacity when emptied and grow only when their high-water
// mark doubles, so once a run has warmed them up, encoding, queueing
// and carrying a datagram touch no heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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

  // Copies bytes into a free slot; the handle stays valid until
  // Release.
  Handle Store(std::span<const std::uint8_t> bytes) {
    if (free_.empty()) Grow();
    const Handle h = free_.back();
    free_.pop_back();
    slots_[h].assign(bytes.begin(), bytes.end());
    return h;
  }
  std::span<std::uint8_t> bytes(Handle h) { return slots_[h]; }
  std::span<const std::uint8_t> bytes(Handle h) const { return slots_[h]; }
  void Release(Handle h) { free_.push_back(h); }

 private:
  // A new slot holds this many bytes before it first grows: more than
  // any frame the sessions send short of a near-maximal packet.
  static constexpr std::size_t kSlotBytes = 128;

  // Doubles the slot count (from 16), so slots are made only as often
  // as the peak number in use doubles.
  void Grow() {
    const std::size_t add = slots_.empty() ? 16 : slots_.size();
    free_.reserve(slots_.size() + add);
    for (std::size_t i = 0; i < add; ++i) {
      free_.push_back(static_cast<Handle>(slots_.size()));
      slots_.emplace_back().reserve(kSlotBytes);
    }
  }

  std::vector<std::vector<std::uint8_t>> slots_;
  std::vector<Handle> free_;
};

}  // namespace celect::net
