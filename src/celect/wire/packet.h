// The unit of communication between processes.
//
// The paper's model allows each message to carry O(log N) bits. A Packet
// is a protocol-defined type tag plus a handful of integer fields
// (identities, levels, steps — all O(log N)-bit quantities). The codec in
// packet_codec.h serialises packets so the metrics layer can account for
// actual bits on the wire.
//
// Fields live in a fixed array of kMaxPacketFields (FieldVec): every
// protocol here sends at most 5 fields and the lease wrap adds one, so
// a Packet is a plain 64-byte value. Copying one is a memcpy, and no
// path allocates for it.
//
// The simulator's event queue does not hold Packets. A queued delivery
// carries a sim::PackedPacket (sim/event.h): the type and up to three
// fields of 32 bits each, which covers nearly every packet sent. The
// runtime parks the rest (four or more fields, or a field outside
// int32) whole in a side store, and hands every handler a Packet equal
// to the one sent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>

#include "celect/util/check.h"

namespace celect::wire {

// The most fields a Packet holds, and so the most the decoder accepts
// (packet_codec.h rejects a wider frame with kTooManyFields).
inline constexpr std::size_t kMaxPacketFields = 6;

// Fixed-capacity vector of int64 fields: trivially copyable, with the
// slice of the std::vector API the protocols and codec use. A field past
// kMaxPacketFields fails a CELECT_CHECK, in every build.
class FieldVec {
 public:
  using value_type = std::int64_t;
  using iterator = std::int64_t*;
  using const_iterator = const std::int64_t*;

  FieldVec() = default;
  FieldVec(std::initializer_list<std::int64_t> fs) {
    assign(fs.begin(), fs.end());
  }

  std::int64_t* begin() { return fields_; }
  std::int64_t* end() { return fields_ + size_; }
  const std::int64_t* begin() const { return fields_; }
  const std::int64_t* end() const { return fields_ + size_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::int64_t& operator[](std::size_t i) { return fields_[i]; }
  const std::int64_t& operator[](std::size_t i) const { return fields_[i]; }

  void clear() { size_ = 0; }

  void push_back(std::int64_t v) {
    CELECT_CHECK(size_ < kMaxPacketFields)
        << "a packet holds at most " << kMaxPacketFields << " fields";
    fields_[size_++] = v;
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
           std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  template <typename It>
  void Append(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    CELECT_CHECK(n <= kMaxPacketFields - size_)
        << "a packet holds at most " << kMaxPacketFields << " fields";
    std::copy(first, last, fields_ + size_);
    size_ += static_cast<std::uint32_t>(n);
  }

  std::uint32_t size_ = 0;
  std::int64_t fields_[kMaxPacketFields] = {};
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
