// Randomised wire-format tests: round-trips over random packets and
// rejection of random corruptions. Deterministic (seeded) so failures
// reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "celect/util/rng.h"
#include "celect/wire/checksum.h"
#include "celect/wire/packet_codec.h"
#include "celect/wire/varint.h"

namespace celect::wire {
namespace {

Packet RandomPacket(Rng& rng) {
  Packet p;
  p.type = static_cast<std::uint16_t>(rng.NextBelow(0x10000));
  std::size_t fields = rng.NextBelow(kMaxPacketFields + 1);
  for (std::size_t i = 0; i < fields; ++i) {
    // Mix small values (the common case) with full-range extremes.
    switch (rng.NextBelow(4)) {
      case 0:
        p.fields.push_back(static_cast<std::int64_t>(rng.NextBelow(256)));
        break;
      case 1:
        p.fields.push_back(-static_cast<std::int64_t>(rng.NextBelow(256)));
        break;
      default:
        p.fields.push_back(static_cast<std::int64_t>(rng.Next()));
        break;
    }
  }
  return p;
}

TEST(WireFuzz, RandomPacketsRoundTrip) {
  Rng rng(2026);
  for (int trial = 0; trial < 5000; ++trial) {
    Packet p = RandomPacket(rng);
    auto buf = Encode(p);
    ASSERT_EQ(buf.size(), EncodedSize(p)) << trial;
    auto back = Decode(buf);
    ASSERT_TRUE(back.has_value()) << trial;
    EXPECT_EQ(*back, p) << trial;
  }
}

TEST(WireFuzz, SingleBitFlipsAreRejectedOrEqual) {
  // A one-bit corruption must never decode to a *different* packet: the
  // checksum catches it (decode fails). We tolerate the theoretical
  // checksum collision by asserting "fails or equals", and count that
  // in practice every flip is caught.
  Rng rng(777);
  int caught = 0, total = 0;
  for (int trial = 0; trial < 800; ++trial) {
    Packet p = RandomPacket(rng);
    auto buf = Encode(p);
    std::size_t byte = rng.NextBelow(buf.size());
    std::uint8_t bit = static_cast<std::uint8_t>(1u << rng.NextBelow(8));
    buf[byte] ^= bit;
    auto back = Decode(buf);
    ++total;
    if (!back.has_value()) {
      ++caught;
    } else {
      EXPECT_EQ(*back, p) << "corruption decoded to a different packet";
    }
  }
  EXPECT_GE(caught, total - 2);
}

TEST(WireFuzz, RandomGarbageNeverCrashes) {
  Rng rng(31337);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> junk(rng.NextBelow(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.NextBelow(256));
    auto result = Decode(junk);  // must not crash; usually nullopt
    if (result.has_value()) {
      // If it parses, re-encoding must reproduce the same bytes.
      EXPECT_EQ(Encode(*result), junk);
    }
  }
}

TEST(WireFuzz, ConcatenatedFramesRejectedAsSingleFrame) {
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    auto a = Encode(RandomPacket(rng));
    auto b = Encode(RandomPacket(rng));
    a.insert(a.end(), b.begin(), b.end());
    EXPECT_FALSE(Decode(a).has_value()) << trial;
  }
}

TEST(WireFuzz, OverlongVarintCorpusRejected) {
  // Non-canonical spellings an attacker (or bit-rot) could emit: each
  // decodes to a value the canonical encoder spells differently, so the
  // strict reader must refuse them with the typed error.
  const std::vector<std::vector<std::uint8_t>> corpus = {
      {0x80, 0x00},              // 0 in two bytes
      {0xFF, 0x00},              // 127 in two bytes
      {0x80, 0x80, 0x00},       // 0 in three bytes
      {0xAC, 0x80, 0x00},       // 44 with a redundant zero group
  };
  for (const auto& bytes : corpus) {
    VarintReader r(bytes.data(), bytes.size());
    EXPECT_FALSE(r.ReadVarint().has_value());
    EXPECT_EQ(r.error(), VarintError::kOverlong);
  }
  // The canonical spellings still parse.
  for (std::uint64_t v : {0ull, 127ull, 128ull, 44ull, ~0ull}) {
    std::vector<std::uint8_t> buf;
    PutVarint(buf, v);
    VarintReader r(buf.data(), buf.size());
    auto got = r.ReadVarint();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
    EXPECT_EQ(r.error(), VarintError::kNone);
  }
}

TEST(WireFuzz, VarintOverflowAndTruncationTyped) {
  // 11-byte chain: overflows 64 bits.
  std::vector<std::uint8_t> over(10, 0x80);
  over.push_back(0x02);
  VarintReader r1(over.data(), over.size());
  EXPECT_FALSE(r1.ReadVarint().has_value());
  EXPECT_EQ(r1.error(), VarintError::kOverflow);
  // All-continuation input: truncated.
  std::vector<std::uint8_t> trunc(3, 0x80);
  VarintReader r2(trunc.data(), trunc.size());
  EXPECT_FALSE(r2.ReadVarint().has_value());
  EXPECT_EQ(r2.error(), VarintError::kTruncated);
}

TEST(WireFuzz, OversizedFrameRejectedBeforeParsing) {
  std::vector<std::uint8_t> huge(kMaxEncodedPacketBytes + 1, 0x01);
  DecodeStatus status;
  EXPECT_FALSE(Decode(huge.data(), huge.size(), status).has_value());
  EXPECT_EQ(status, DecodeStatus::kOversizedFrame);
}

TEST(WireFuzz, TooManyFieldsRejected) {
  std::vector<std::uint8_t> buf;
  PutVarint(buf, 7);                        // type
  PutVarint(buf, kMaxPacketFields + 1);     // hostile field count
  DecodeStatus status;
  EXPECT_FALSE(Decode(buf.data(), buf.size(), status).has_value());
  EXPECT_EQ(status, DecodeStatus::kTooManyFields);
  // A complete, correctly checksummed frame one field too wide for a
  // Packet is rejected the same way.
  for (std::size_t i = 0; i <= kMaxPacketFields; ++i) {
    PutSignedVarint(buf, static_cast<std::int64_t>(i));
  }
  const std::uint32_t sum = Checksum32(buf);
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  }
  EXPECT_FALSE(Decode(buf.data(), buf.size(), status).has_value());
  EXPECT_EQ(status, DecodeStatus::kTooManyFields);
}

TEST(WireFuzz, DecodeStatusMatchesCause) {
  Packet p;
  p.type = 42;
  p.fields = {1, -2, 3};
  auto good = Encode(p);
  DecodeStatus status;

  ASSERT_TRUE(Decode(good.data(), good.size(), status).has_value());
  EXPECT_EQ(status, DecodeStatus::kOk);

  auto truncated = good;
  truncated.pop_back();
  EXPECT_FALSE(Decode(truncated.data(), truncated.size(), status));
  EXPECT_EQ(status, DecodeStatus::kTruncated);

  auto bad_sum = good;
  bad_sum.back() ^= 0xFF;  // checksum trailer byte
  EXPECT_FALSE(Decode(bad_sum.data(), bad_sum.size(), status));
  EXPECT_EQ(status, DecodeStatus::kBadChecksum);

  auto trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(Decode(trailing.data(), trailing.size(), status));
  EXPECT_EQ(status, DecodeStatus::kTrailingGarbage);

  std::vector<std::uint8_t> bad_type;
  PutVarint(bad_type, 0x10000);  // one past the uint16 type space
  EXPECT_FALSE(Decode(bad_type.data(), bad_type.size(), status));
  EXPECT_EQ(status, DecodeStatus::kBadType);

  std::vector<std::uint8_t> overlong = {0x80, 0x00};
  EXPECT_FALSE(Decode(overlong.data(), overlong.size(), status));
  EXPECT_EQ(status, DecodeStatus::kOverlongVarint);
}

TEST(WireFuzz, StreamingChecksumMatchesOneShot) {
  Rng rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> data(rng.NextBelow(300));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.NextBelow(256));
    Fnv1aStream stream;
    std::size_t pos = 0;
    while (pos < data.size()) {
      // Random chunking, including single bytes and empty slices.
      std::size_t chunk = rng.NextBelow(17);
      chunk = std::min(chunk, data.size() - pos);
      stream.Update(data.data() + pos, chunk);
      pos += chunk;
    }
    EXPECT_EQ(stream.Digest64(), Fnv1a64(data)) << trial;
    EXPECT_EQ(stream.Digest32(), Checksum32(data)) << trial;
  }
}

TEST(WireFuzz, EncodedPacketsStayUnderFrameBound) {
  // The reliability layer assumes any protocol packet fits one frame;
  // the widest packet the codec accepts must confirm that.
  Packet widest;
  widest.type = 0xFFFF;
  for (std::size_t i = 0; i < kMaxPacketFields; ++i) {
    widest.fields.push_back(std::numeric_limits<std::int64_t>::min());
  }
  EXPECT_LE(EncodedSize(widest), kMaxEncodedPacketBytes);
}

}  // namespace
}  // namespace celect::wire
