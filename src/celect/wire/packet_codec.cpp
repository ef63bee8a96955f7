#include "celect/wire/packet_codec.h"

#include <sstream>

#include "celect/util/check.h"
#include "celect/wire/checksum.h"
#include "celect/wire/varint.h"

namespace celect::wire {

std::int64_t Packet::field(std::size_t i) const {
  CELECT_DCHECK(i < fields.size())
      << "packet type " << type << " has " << fields.size() << " fields";
  return fields[i];
}

std::string ToString(const Packet& p) {
  std::ostringstream os;
  os << "type=" << p.type << " [";
  for (std::size_t i = 0; i < p.fields.size(); ++i) {
    if (i) os << ", ";
    os << p.fields[i];
  }
  os << "]";
  return os.str();
}

void EncodeTo(const Packet& p, std::vector<std::uint8_t>& out) {
  std::size_t start = out.size();
  PutVarint(out, p.type);
  PutVarint(out, p.fields.size());
  for (std::int64_t f : p.fields) PutSignedVarint(out, f);
  std::uint32_t sum = Checksum32(out.data() + start, out.size() - start);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  }
}

std::vector<std::uint8_t> Encode(const Packet& p) {
  std::vector<std::uint8_t> out;
  out.reserve(EncodedSize(p));
  EncodeTo(p, out);
  return out;
}

std::size_t EncodedSize(const Packet& p) {
  std::size_t n = VarintSize(p.type) + VarintSize(p.fields.size());
  for (std::int64_t f : p.fields) n += SignedVarintSize(f);
  return n + 4;  // checksum
}

const char* ToString(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kTruncated:
      return "truncated";
    case DecodeStatus::kOverlongVarint:
      return "overlong-varint";
    case DecodeStatus::kValueOverflow:
      return "value-overflow";
    case DecodeStatus::kBadType:
      return "bad-type";
    case DecodeStatus::kOversizedFrame:
      return "oversized-frame";
    case DecodeStatus::kTooManyFields:
      return "too-many-fields";
    case DecodeStatus::kBadChecksum:
      return "bad-checksum";
    case DecodeStatus::kTrailingGarbage:
      return "trailing-garbage";
  }
  return "?";
}

namespace {

DecodeStatus StatusOf(VarintError e) {
  switch (e) {
    case VarintError::kOverlong:
      return DecodeStatus::kOverlongVarint;
    case VarintError::kOverflow:
      return DecodeStatus::kValueOverflow;
    case VarintError::kTruncated:
    case VarintError::kNone:
      break;
  }
  return DecodeStatus::kTruncated;
}

}  // namespace

std::optional<Packet> Decode(const std::uint8_t* data, std::size_t size,
                             DecodeStatus& status) {
  if (size > kMaxEncodedPacketBytes) {
    status = DecodeStatus::kOversizedFrame;
    return std::nullopt;
  }
  VarintReader reader(data, size);
  auto type = reader.ReadVarint();
  if (!type) {
    status = StatusOf(reader.error());
    return std::nullopt;
  }
  if (*type > 0xFFFF) {
    status = DecodeStatus::kBadType;
    return std::nullopt;
  }
  auto count = reader.ReadVarint();
  if (!count) {
    status = StatusOf(reader.error());
    return std::nullopt;
  }
  if (*count > kMaxPacketFields) {
    status = DecodeStatus::kTooManyFields;
    return std::nullopt;
  }
  Packet p;
  p.type = static_cast<std::uint16_t>(*type);
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto f = reader.ReadSignedVarint();
    if (!f) {
      status = StatusOf(reader.error());
      return std::nullopt;
    }
    p.fields.push_back(*f);
  }
  std::size_t body_end = reader.position();
  std::uint32_t expect = 0;
  for (int i = 0; i < 4; ++i) {
    auto b = reader.ReadByte();
    if (!b) {
      status = DecodeStatus::kTruncated;
      return std::nullopt;
    }
    expect |= static_cast<std::uint32_t>(*b) << (8 * i);
  }
  if (Checksum32(data, body_end) != expect) {
    status = DecodeStatus::kBadChecksum;
    return std::nullopt;
  }
  if (!reader.AtEnd()) {
    status = DecodeStatus::kTrailingGarbage;
    return std::nullopt;
  }
  status = DecodeStatus::kOk;
  return p;
}

std::optional<Packet> Decode(const std::uint8_t* data, std::size_t size) {
  DecodeStatus status;
  return Decode(data, size, status);
}

std::optional<Packet> Decode(const std::vector<std::uint8_t>& buf) {
  return Decode(buf.data(), buf.size());
}

}  // namespace celect::wire
