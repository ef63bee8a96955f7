// Framing for Packets.
//
// Frame layout:
//   varint  type
//   varint  field count
//   svarint field[0..n)
//   u8[4]   checksum32 over everything before it (little-endian)
//
// The simulator's metrics layer uses EncodedSize to account bits on the
// wire, verifying the model's O(log N)-bits-per-message assumption holds
// for every protocol we implement.
#pragma once

#include <optional>
#include <vector>

#include "celect/wire/packet.h"

namespace celect::wire {

// Hard bounds on what the decoder accepts: at most kMaxEncodedPacketBytes
// of input and kMaxPacketFields fields (packet.h), the most a Packet
// holds. The model's packets are O(log N) bits — a handful of varint
// fields — so anything past these limits is corruption or an attack,
// not a protocol message.
inline constexpr std::size_t kMaxEncodedPacketBytes = 1024;

// Why a Decode failed (kOk iff a packet was returned).
enum class DecodeStatus {
  kOk = 0,
  kTruncated,        // input ended mid-frame
  kOverlongVarint,   // non-canonical varint spelling
  kValueOverflow,    // varint exceeds 64 bits
  kBadType,          // type field above the uint16 packet-type space
  kOversizedFrame,   // input longer than kMaxEncodedPacketBytes
  kTooManyFields,    // field count above kMaxPacketFields
  kBadChecksum,      // FNV mismatch
  kTrailingGarbage,  // valid frame followed by extra bytes
};

const char* ToString(DecodeStatus s);

// Serialises p into a fresh buffer.
std::vector<std::uint8_t> Encode(const Packet& p);

// Appends the encoding of p to out.
void EncodeTo(const Packet& p, std::vector<std::uint8_t>& out);

// Size in bytes of Encode(p) without materialising the buffer.
std::size_t EncodedSize(const Packet& p);

// Parses one frame; nullopt on truncation, oversized or overlong input,
// trailing garbage within the frame bounds, or checksum mismatch. The
// three-argument overload reports the exact cause — reliability layers
// count corrupt-vs-truncated drops separately.
std::optional<Packet> Decode(const std::vector<std::uint8_t>& buf);
std::optional<Packet> Decode(const std::uint8_t* data, std::size_t size);
std::optional<Packet> Decode(const std::uint8_t* data, std::size_t size,
                             DecodeStatus& status);

}  // namespace celect::wire
