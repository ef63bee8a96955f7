#include <gtest/gtest.h>

#include <limits>
#include <type_traits>

#include "celect/wire/checksum.h"
#include "celect/wire/packet_codec.h"
#include "celect/wire/varint.h"

namespace celect::wire {
namespace {

TEST(Varint, RoundTripSmallValues) {
  for (std::uint64_t v = 0; v < 300; ++v) {
    std::vector<std::uint8_t> buf;
    PutVarint(buf, v);
    EXPECT_EQ(buf.size(), VarintSize(v));
    VarintReader r(buf);
    auto back = r.ReadVarint();
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(Varint, RoundTripBoundaryValues) {
  const std::uint64_t kValues[] = {
      0, 127, 128, 16383, 16384, (1ull << 32) - 1, 1ull << 32,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : kValues) {
    std::vector<std::uint8_t> buf;
    PutVarint(buf, v);
    VarintReader r(buf);
    EXPECT_EQ(r.ReadVarint(), v);
  }
}

TEST(Varint, SizeGrowsAtSevenBitBoundaries) {
  EXPECT_EQ(VarintSize(0), 1u);
  EXPECT_EQ(VarintSize(127), 1u);
  EXPECT_EQ(VarintSize(128), 2u);
  EXPECT_EQ(VarintSize(16383), 2u);
  EXPECT_EQ(VarintSize(16384), 3u);
  EXPECT_EQ(VarintSize(~0ull), 10u);
}

TEST(Varint, TruncatedInputFails) {
  std::vector<std::uint8_t> buf;
  PutVarint(buf, 1ull << 40);
  buf.pop_back();
  VarintReader r(buf);
  EXPECT_FALSE(r.ReadVarint().has_value());
}

TEST(Varint, EmptyInputFails) {
  VarintReader r(nullptr, 0);
  EXPECT_FALSE(r.ReadVarint().has_value());
  EXPECT_FALSE(r.ReadByte().has_value());
}

TEST(Zigzag, MapsSignAlternately) {
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-2), 3u);
  EXPECT_EQ(ZigzagEncode(2), 4u);
}

TEST(Zigzag, RoundTripExtremes) {
  for (std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(SignedVarint, SmallMagnitudesAreOneByte) {
  EXPECT_EQ(SignedVarintSize(0), 1u);
  EXPECT_EQ(SignedVarintSize(-64), 1u);
  EXPECT_EQ(SignedVarintSize(63), 1u);
  EXPECT_EQ(SignedVarintSize(64), 2u);
}

TEST(Checksum, DeterministicAndSensitive) {
  std::vector<std::uint8_t> a{1, 2, 3, 4};
  std::vector<std::uint8_t> b{1, 2, 3, 5};
  EXPECT_EQ(Checksum32(a), Checksum32(a));
  EXPECT_NE(Checksum32(a), Checksum32(b));
}

TEST(Checksum, EmptyInputHasStableValue) {
  EXPECT_EQ(Fnv1a64(nullptr, 0), 0xcbf29ce484222325ULL);
}

TEST(PacketCodec, RoundTripTypicalPackets) {
  for (const Packet& p :
       {Packet{1, {}}, Packet{2, {42}}, Packet{3, {7, -9}},
        Packet{500, {0, 1, -1, std::numeric_limits<std::int64_t>::max(),
                     std::numeric_limits<std::int64_t>::min()}}}) {
    auto buf = Encode(p);
    EXPECT_EQ(buf.size(), EncodedSize(p));
    auto back = Decode(buf);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
}

TEST(PacketCodec, SmallPacketsStayOLogNBits) {
  // The model allows O(log N) bits per message; a typical election
  // packet (type + id + level) must stay tiny.
  Packet p{3, {123456, 78}};
  EXPECT_LE(EncodedSize(p), 16u);
}

TEST(PacketCodec, CorruptedChecksumRejected) {
  auto buf = Encode(Packet{7, {1, 2, 3}});
  buf.back() ^= 0xFF;
  EXPECT_FALSE(Decode(buf).has_value());
}

TEST(PacketCodec, CorruptedBodyRejected) {
  auto buf = Encode(Packet{7, {1, 2, 3}});
  buf[1] ^= 0x01;
  EXPECT_FALSE(Decode(buf).has_value());
}

TEST(PacketCodec, TruncationRejected) {
  auto buf = Encode(Packet{7, {100, 200}});
  for (std::size_t cut = 1; cut < buf.size(); ++cut) {
    std::vector<std::uint8_t> shorter(buf.begin(), buf.begin() + cut);
    EXPECT_FALSE(Decode(shorter).has_value()) << "cut=" << cut;
  }
}

TEST(PacketCodec, TrailingGarbageRejected) {
  auto buf = Encode(Packet{7, {5}});
  buf.push_back(0);
  EXPECT_FALSE(Decode(buf).has_value());
}

TEST(PacketCodec, ToStringIsReadable) {
  EXPECT_EQ(ToString(Packet{3, {7, 42}}), "type=3 [7, 42]");
  EXPECT_EQ(ToString(Packet{9, {}}), "type=9 []");
}

// A Packet is a plain value: copies are a memcpy and nothing allocates.
static_assert(std::is_trivially_copyable_v<Packet>);
static_assert(sizeof(Packet) <= 64);

TEST(PacketDeathTest, FieldPastCapacityAborts) {
  Packet p;
  for (std::size_t i = 0; i < kMaxPacketFields; ++i) {
    p.fields.push_back(static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(p.fields.size(), kMaxPacketFields);
  // The check holds in every build, NDEBUG included.
  EXPECT_DEATH(p.fields.push_back(6), "at most 6 fields");
  EXPECT_DEATH((Packet{1, {0, 1, 2, 3, 4, 5, 6}}), "at most 6 fields");
}

}  // namespace
}  // namespace celect::wire
