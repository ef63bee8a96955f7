#include "celect/net/frame.h"

#include "celect/wire/varint.h"

namespace celect::net {

bool IsValidFrameKind(std::uint8_t k) {
  return k >= static_cast<std::uint8_t>(FrameKind::kHello) &&
         k <= static_cast<std::uint8_t>(FrameKind::kReset);
}

const char* ToString(FrameKind k) {
  switch (k) {
    case FrameKind::kHello:
      return "hello";
    case FrameKind::kHelloAck:
      return "hello-ack";
    case FrameKind::kData:
      return "data";
    case FrameKind::kAck:
      return "ack";
    case FrameKind::kReset:
      return "reset";
  }
  return "?";
}

void EncodeFrame(FrameKind kind, const std::uint8_t* head,
                 std::size_t head_len, const std::uint8_t* body,
                 std::size_t body_len, std::vector<std::uint8_t>& out) {
  out.push_back(kFrameMagic0);
  out.push_back(kFrameMagic1);
  const std::size_t checked = out.size();
  out.push_back(static_cast<std::uint8_t>(kind));
  wire::PutVarint(out, head_len + body_len);
  out.insert(out.end(), head, head + head_len);
  out.insert(out.end(), body, body + body_len);
  wire::Fnv1aStream hash;
  hash.Update(out.data() + checked, out.size() - checked);
  const std::uint32_t sum = hash.Digest32();
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  }
}

void EncodeFrame(FrameKind kind, const std::uint8_t* payload,
                 std::size_t len, std::vector<std::uint8_t>& out) {
  EncodeFrame(kind, payload, len, nullptr, 0, out);
}

void EncodeFrame(FrameKind kind, const std::vector<std::uint8_t>& payload,
                 std::vector<std::uint8_t>& out) {
  EncodeFrame(kind, payload.data(), payload.size(), out);
}

FrameDecoder::Push FrameDecoder::Fail() {
  ++errors_;
  state_ = State::kMagic0;
  frame_.payload.clear();
  return Push::kError;
}

FrameDecoder::Push FrameDecoder::PushByte(std::uint8_t b) {
  switch (state_) {
    case State::kMagic0:
      if (b == kFrameMagic0) {
        state_ = State::kMagic1;
      } else {
        ++garbage_bytes_;
      }
      return Push::kPending;
    case State::kMagic1:
      if (b == kFrameMagic1) {
        state_ = State::kKind;
        frame_.payload.clear();
        len_ = 0;
        len_shift_ = 0;
        sum_ = 0;
        sum_bytes_ = 0;
        hash_.Reset();
      } else if (b == kFrameMagic0) {
        // The previous magic0 was garbage; this byte restarts the scan.
        ++garbage_bytes_;
      } else {
        garbage_bytes_ += 2;
        state_ = State::kMagic0;
      }
      return Push::kPending;
    case State::kKind:
      hash_.Update(b);
      if (!IsValidFrameKind(b)) return Fail();
      frame_.kind = static_cast<FrameKind>(b);
      state_ = State::kLen;
      return Push::kPending;
    case State::kLen:
      hash_.Update(b);
      len_ |= static_cast<std::uint64_t>(b & 0x7F) << len_shift_;
      if (b & 0x80) {
        len_shift_ += 7;
        // kMaxFramePayload fits in two 7-bit groups; a longer chain is
        // corruption, and without this cap a hostile length could run
        // the shift past 64 bits.
        if (len_shift_ > 21) return Fail();
        return Push::kPending;
      }
      if (len_shift_ > 0 && b == 0) return Fail();  // overlong varint
      if (len_ > kMaxFramePayload) return Fail();
      frame_.payload.reserve(static_cast<std::size_t>(len_));
      state_ = len_ == 0 ? State::kSum : State::kPayload;
      return Push::kPending;
    case State::kPayload:
      hash_.Update(b);
      frame_.payload.push_back(b);
      if (frame_.payload.size() == len_) state_ = State::kSum;
      return Push::kPending;
    case State::kSum:
      sum_ |= static_cast<std::uint32_t>(b) << (8 * sum_bytes_);
      if (++sum_bytes_ < 4) return Push::kPending;
      if (sum_ != hash_.Digest32()) return Fail();
      ++frames_;
      state_ = State::kMagic0;
      return Push::kFrame;
  }
  return Push::kPending;
}

std::size_t FrameDecoder::PushBytes(const std::uint8_t* data,
                                    std::size_t len,
                                    std::vector<Frame>& out) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (PushByte(data[i]) == Push::kFrame) {
      out.push_back(TakeFrame());
      ++n;
    }
  }
  return n;
}

Frame FrameDecoder::TakeFrame() {
  Frame f;
  f.kind = frame_.kind;
  f.payload = std::move(frame_.payload);
  frame_.payload.clear();
  return f;
}

bool FrameDecoder::FlushTruncated() {
  if (state_ == State::kMagic0) return false;
  ++errors_;
  state_ = State::kMagic0;
  frame_.payload.clear();
  return true;
}

bool FrameCursor::Next(FrameView& out) {
  // Each step mirrors a FrameDecoder state. A rejected frame resumes
  // the scan at the byte after the one that failed it; a datagram that
  // ends mid-frame costs one error, as FlushTruncated would.
  while (pos_ < size_) {
    if (data_[pos_++] != kFrameMagic0) continue;  // kMagic0
    // kMagic1: a repeated magic0 restarts the pair.
    while (pos_ < size_ && data_[pos_] == kFrameMagic0) ++pos_;
    if (pos_ == size_) return Truncated();
    if (data_[pos_++] != kFrameMagic1) continue;
    const std::size_t checked = pos_;
    if (pos_ == size_) return Truncated();
    const std::uint8_t kind = data_[pos_++];  // kKind
    if (!IsValidFrameKind(kind)) {
      ++errors_;
      continue;
    }
    std::uint64_t len = 0;  // kLen
    int shift = 0;
    bool more = true;
    bool bad = false;
    while (more && !bad && pos_ < size_) {
      const std::uint8_t b = data_[pos_++];
      len |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      more = (b & 0x80) != 0;
      if (more) {
        shift += 7;
        bad = shift > 21;
      } else {
        bad = (shift > 0 && b == 0) || len > kMaxFramePayload;
      }
    }
    if (bad) {
      ++errors_;
      continue;
    }
    if (more || size_ - pos_ < len + 4) return Truncated();  // kPayload, kSum
    const std::size_t payload = pos_;
    pos_ += static_cast<std::size_t>(len);
    wire::Fnv1aStream hash;
    hash.Update(data_ + checked, pos_ - checked);
    std::uint32_t sum = 0;
    for (int i = 0; i < 4; ++i) {
      sum |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    }
    if (sum != hash.Digest32()) {
      ++errors_;
      continue;
    }
    out = FrameView{static_cast<FrameKind>(kind), data_ + payload,
                    static_cast<std::size_t>(len)};
    return true;
  }
  return false;
}

bool FrameCursor::Truncated() {
  ++errors_;
  pos_ = size_;
  return false;
}

}  // namespace celect::net
