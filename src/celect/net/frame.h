// Byte-level framing for the transport.
//
// A frame is the unit the reliability session exchanges over a datagram
// (or byte) pipe:
//
//   u8      magic0 = 0xCE
//   u8      magic1 = 0x17
//   u8      kind          (FrameKind)
//   varint  payload length
//   u8[len] payload
//   u8[4]   checksum32 over kind..payload (little-endian FNV-1a fold)
//
// The decoder is an incremental push-byte state machine: feed it bytes
// in any chunking and it emits complete frames, skipping garbage by
// rescanning for the magic pair. Truncated input simply leaves it
// mid-state; corrupt input costs one error counter tick and a resync,
// never a crash or an unbounded allocation (payload length is capped
// before any buffering happens).
//
// A datagram always carries whole frames, so the session reads one
// with a FrameCursor instead: the same scan over a buffer it already
// holds, yielding each frame's payload in place rather than copying it
// out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "celect/wire/checksum.h"

namespace celect::net {

inline constexpr std::uint8_t kFrameMagic0 = 0xCE;
inline constexpr std::uint8_t kFrameMagic1 = 0x17;

// Largest payload the decoder will buffer: a session header plus one
// max-size wire packet, with headroom.
inline constexpr std::size_t kMaxFramePayload = 1200;

// Session wire version, negotiated in the Hello/HelloAck handshake.
// Version 2 added the trace-context fields (Lamport clock + message
// uid) to Data frames; a peer advertising any other version is counted
// and ignored at handshake, so mixed-version clusters fail loudly at
// session setup instead of misparsing Data payloads mid-stream.
inline constexpr std::uint64_t kWireVersion = 2;

enum class FrameKind : std::uint8_t {
  kHello = 1,     // open / reopen a session (carries epoch, start seq)
  kHelloAck = 2,  // accept a session (carries both epochs, start seq)
  kData = 3,      // sequenced payload with piggybacked ack
  kAck = 4,       // pure ack
  kReset = 5,     // "I have no session for your epoch — re-hello"
};

bool IsValidFrameKind(std::uint8_t k);
const char* ToString(FrameKind k);

struct Frame {
  FrameKind kind = FrameKind::kData;
  std::vector<std::uint8_t> payload;
};

// A frame read in place: payload points into the datagram it came from.
struct FrameView {
  FrameKind kind = FrameKind::kData;
  const std::uint8_t* payload = nullptr;
  std::size_t len = 0;
};

// Appends the encoded frame to out. The payload is gathered from head
// followed by body, so a caller holding a header and a stored body in
// separate buffers never stages a contiguous copy; the checksum is
// taken over the appended bytes.
void EncodeFrame(FrameKind kind, const std::uint8_t* head,
                 std::size_t head_len, const std::uint8_t* body,
                 std::size_t body_len, std::vector<std::uint8_t>& out);
void EncodeFrame(FrameKind kind, const std::uint8_t* payload,
                 std::size_t len, std::vector<std::uint8_t>& out);
void EncodeFrame(FrameKind kind, const std::vector<std::uint8_t>& payload,
                 std::vector<std::uint8_t>& out);

class FrameDecoder {
 public:
  enum class Push {
    kPending,  // need more bytes
    kFrame,    // a complete frame is available via frame()
    kError,    // bad magic / kind / length / checksum; decoder resynced
  };

  Push PushByte(std::uint8_t b);

  // Feeds a whole buffer, appending every completed frame to out.
  // Returns the number of frames appended.
  std::size_t PushBytes(const std::uint8_t* data, std::size_t len,
                        std::vector<Frame>& out);

  // The frame completed by the most recent PushByte() == kFrame. The
  // payload is moved out, so read it before pushing further bytes.
  Frame TakeFrame();

  // Datagram-boundary hook: a datagram always carries whole frames, so
  // being mid-frame at its end means the tail was lost or mangled.
  // Counts one error and resyncs; returns true if it was mid-frame.
  // Byte-pipe callers (arbitrary chunking) simply never call this.
  bool FlushTruncated();

  std::uint64_t frames() const { return frames_; }
  std::uint64_t errors() const { return errors_; }
  std::uint64_t garbage_bytes() const { return garbage_bytes_; }

 private:
  enum class State { kMagic0, kMagic1, kKind, kLen, kPayload, kSum };

  Push Fail();

  State state_ = State::kMagic0;
  Frame frame_;
  std::uint64_t len_ = 0;
  int len_shift_ = 0;
  std::uint32_t sum_ = 0;
  int sum_bytes_ = 0;
  wire::Fnv1aStream hash_;
  std::uint64_t frames_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t garbage_bytes_ = 0;
};

// Walks the frames of one whole datagram without copying them. It
// accepts and rejects exactly what FrameDecoder::PushBytes followed by
// FlushTruncated does, byte for byte: the same magic rescan, the same
// kind, length and checksum checks, and the same error count.
class FrameCursor {
 public:
  FrameCursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  // Moves to the next valid frame; false once the datagram is used up.
  bool Next(FrameView& out);

  // Framing errors so far, counting a mangled tail once Next has
  // returned false.
  std::uint64_t errors() const { return errors_; }

 private:
  // Counts the datagram's mangled tail and ends the walk.
  bool Truncated();

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint64_t errors_ = 0;
};

}  // namespace celect::net
