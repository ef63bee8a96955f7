// The unit of communication between processes.
//
// The paper's model allows each message to carry O(log N) bits. A Packet
// is a protocol-defined type tag plus a handful of integer fields
// (identities, levels, steps — all O(log N)-bit quantities). The codec in
// packet_codec.h serialises packets so the metrics layer can account for
// actual bits on the wire.
//
// Fields live in a small-buffer vector (FieldVec): every protocol here
// sends at most 5 literal fields (the lease wrap adds one more), so the
// common case stays inline and a packet copy is a few memcpy'd words —
// no allocator traffic on the hot paths, where every send used to cost
// a heap vector and every queued event a free.
//
// The simulator's event queue does not hold Packets. A queued delivery
// carries a sim::PackedPacket (sim/event.h): the type and up to three
// fields of 32 bits each, which covers nearly every packet sent. The
// runtime parks the rest (four or more fields, or a field outside
// int32) whole in a side store, and hands every handler a Packet equal
// to the one sent.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>

namespace celect::wire {

// Minimal inline-storage vector of int64 fields. Grows to the heap past
// kInline elements; supports the slice of the std::vector API the
// protocols and codec actually use.
class FieldVec {
 public:
  using value_type = std::int64_t;
  using iterator = std::int64_t*;
  using const_iterator = const std::int64_t*;

  // Inline capacity: one more than the widest packet any protocol sends
  // (5 fields) so even lease-wrapped packets stay allocation-free.
  static constexpr std::uint32_t kInline = 6;

  FieldVec() = default;
  FieldVec(std::initializer_list<std::int64_t> fs) {
    assign(fs.begin(), fs.end());
  }
  FieldVec(const FieldVec& o) { assign(o.begin(), o.end()); }
  FieldVec(FieldVec&& o) noexcept { MoveFrom(o); }
  FieldVec& operator=(const FieldVec& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  FieldVec& operator=(FieldVec&& o) noexcept {
    if (this != &o) {
      Release();
      MoveFrom(o);
    }
    return *this;
  }
  ~FieldVec() { Release(); }

  std::int64_t* begin() { return data(); }
  std::int64_t* end() { return data() + size_; }
  const std::int64_t* begin() const { return data(); }
  const std::int64_t* end() const { return data() + size_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::int64_t& operator[](std::size_t i) { return data()[i]; }
  const std::int64_t& operator[](std::size_t i) const { return data()[i]; }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) Grow(static_cast<std::uint32_t>(n));
  }

  void push_back(std::int64_t v) {
    if (size_ == cap_) Grow(cap_ * 2);
    data()[size_++] = v;
  }

  template <typename It>
  void assign(It first, It last) {
    clear();
    Append(first, last);
  }

  // Append-only insert (the one shape used in-tree: pos == end()).
  template <typename It>
  void insert(iterator pos, It first, It last) {
    (void)pos;  // always end(); FieldVec does not support middle inserts
    Append(first, last);
  }

  friend bool operator==(const FieldVec& a, const FieldVec& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.data(), b.data(),
                        a.size_ * sizeof(std::int64_t)) == 0);
  }

 private:
  std::int64_t* data() { return heap_ ? heap_ : inline_; }
  const std::int64_t* data() const { return heap_ ? heap_ : inline_; }

  template <typename It>
  void Append(It first, It last) {
    for (; first != last; ++first) push_back(*first);
  }

  void Grow(std::uint32_t want);
  void Release() {
    delete[] heap_;
    heap_ = nullptr;
    cap_ = kInline;
  }
  void MoveFrom(FieldVec& o) noexcept {
    size_ = o.size_;
    cap_ = o.cap_;
    heap_ = o.heap_;
    if (!heap_ && size_ > 0) {
      std::memcpy(inline_, o.inline_, size_ * sizeof(std::int64_t));
    }
    o.heap_ = nullptr;
    o.size_ = 0;
    o.cap_ = kInline;
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
  std::int64_t* heap_ = nullptr;  // null while the fields fit inline
  std::int64_t inline_[kInline];
};

struct Packet {
  std::uint16_t type = 0;
  FieldVec fields;

  Packet() = default;
  Packet(std::uint16_t t, std::initializer_list<std::int64_t> fs)
      : type(t), fields(fs) {}

  // Field accessor with bounds checking in debug builds.
  std::int64_t field(std::size_t i) const;

  friend bool operator==(const Packet&, const Packet&) = default;
};

// Debug rendering: "type=3 [7, 42]".
std::string ToString(const Packet& p);

}  // namespace celect::wire
