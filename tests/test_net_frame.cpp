// Framing-layer tests: encode/decode round trips under arbitrary
// chunking, resync after garbage and corruption, the hard payload
// bound, FrameCursor (in-place datagram reading) held to
// FrameDecoder's decisions on mangled datagrams, and the DatagramPool
// slots datagrams wait in. All seeded — failures reproduce
// bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "celect/net/datagram.h"
#include "celect/net/frame.h"
#include "celect/util/rng.h"

namespace celect::net {
namespace {

std::vector<std::uint8_t> RandomPayload(Rng& rng, std::size_t max) {
  std::vector<std::uint8_t> p(rng.NextBelow(max + 1));
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.NextBelow(256));
  return p;
}

FrameKind RandomKind(Rng& rng) {
  return static_cast<FrameKind>(1 + rng.NextBelow(5));
}

TEST(NetFrame, RoundTripSingleFrame) {
  std::vector<std::uint8_t> payload = {1, 2, 3, 0xCE, 0x17, 0xFF};
  std::vector<std::uint8_t> buf;
  EncodeFrame(FrameKind::kData, payload, buf);
  FrameDecoder dec;
  std::vector<Frame> out;
  EXPECT_EQ(dec.PushBytes(buf.data(), buf.size(), out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, FrameKind::kData);
  EXPECT_EQ(out[0].payload, payload);
  EXPECT_EQ(dec.errors(), 0u);
}

TEST(NetFrame, EmptyPayloadRoundTrips) {
  std::vector<std::uint8_t> buf;
  EncodeFrame(FrameKind::kHello, nullptr, 0, buf);
  FrameDecoder dec;
  std::vector<Frame> out;
  EXPECT_EQ(dec.PushBytes(buf.data(), buf.size(), out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].payload.empty());
}

TEST(NetFrame, ArbitraryChunkingIsTransparent) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Frame> sent;
    std::vector<std::uint8_t> stream;
    std::size_t count = 1 + rng.NextBelow(5);
    for (std::size_t i = 0; i < count; ++i) {
      Frame f{RandomKind(rng), RandomPayload(rng, 100)};
      EncodeFrame(f.kind, f.payload, stream);
      sent.push_back(std::move(f));
    }
    FrameDecoder dec;
    std::vector<Frame> got;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      std::size_t chunk = std::min<std::size_t>(1 + rng.NextBelow(13),
                                                stream.size() - pos);
      dec.PushBytes(stream.data() + pos, chunk, got);
      pos += chunk;
    }
    ASSERT_EQ(got.size(), sent.size()) << trial;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].kind, sent[i].kind) << trial;
      EXPECT_EQ(got[i].payload, sent[i].payload) << trial;
    }
    EXPECT_EQ(dec.errors(), 0u) << trial;
  }
}

TEST(NetFrame, ResyncsAfterLeadingGarbage) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage = RandomPayload(rng, 40);
    // Garbage containing the magic byte could eat the real frame's
    // start (it still must not crash); keep this case exact by
    // scrubbing 0xCE from the prefix.
    for (auto& b : garbage) {
      if (b == kFrameMagic0) b = 0x00;
    }
    std::vector<std::uint8_t> stream = garbage;
    Frame f{RandomKind(rng), RandomPayload(rng, 60)};
    EncodeFrame(f.kind, f.payload, stream);
    FrameDecoder dec;
    std::vector<Frame> got;
    dec.PushBytes(stream.data(), stream.size(), got);
    ASSERT_EQ(got.size(), 1u) << trial;
    EXPECT_EQ(got[0].kind, f.kind) << trial;
    EXPECT_EQ(got[0].payload, f.payload) << trial;
    EXPECT_EQ(dec.garbage_bytes(), garbage.size()) << trial;
  }
}

TEST(NetFrame, CorruptionIsCountedAndFollowingFramesRecovered) {
  // Corrupt the first frame's payload; the decoder must reject it on
  // checksum and pick up the second frame at its magic boundary.
  std::vector<std::uint8_t> first_payload(20, 0xAB);
  std::vector<std::uint8_t> second_payload = {9, 8, 7};
  std::vector<std::uint8_t> stream;
  EncodeFrame(FrameKind::kData, first_payload, stream);
  std::size_t first_len = stream.size();
  EncodeFrame(FrameKind::kAck, second_payload, stream);
  stream[10] ^= 0x40;  // inside the first payload
  FrameDecoder dec;
  std::vector<Frame> got;
  dec.PushBytes(stream.data(), stream.size(), got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, FrameKind::kAck);
  EXPECT_EQ(got[0].payload, second_payload);
  EXPECT_GE(dec.errors(), 1u);
  (void)first_len;
}

TEST(NetFrame, OversizedLengthRejectedBeforeBuffering) {
  // Hand-build a header claiming a payload far over the cap; the
  // decoder must error out at the length field.
  std::vector<std::uint8_t> stream = {kFrameMagic0, kFrameMagic1,
                                      static_cast<std::uint8_t>(
                                          FrameKind::kData),
                                      0xFF, 0xFF, 0x7F};  // ~2M length
  FrameDecoder dec;
  std::vector<Frame> got;
  dec.PushBytes(stream.data(), stream.size(), got);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(dec.errors(), 1u);
}

TEST(NetFrame, InvalidKindRejected) {
  std::vector<std::uint8_t> stream = {kFrameMagic0, kFrameMagic1, 0x77};
  FrameDecoder dec;
  std::vector<Frame> got;
  dec.PushBytes(stream.data(), stream.size(), got);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(dec.errors(), 1u);
}

TEST(NetFrame, TruncatedDatagramFlushCountsError) {
  std::vector<std::uint8_t> buf;
  EncodeFrame(FrameKind::kData, std::vector<std::uint8_t>(30, 1), buf);
  FrameDecoder dec;
  std::vector<Frame> got;
  dec.PushBytes(buf.data(), buf.size() / 2, got);  // half a datagram
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(dec.FlushTruncated());
  EXPECT_EQ(dec.errors(), 1u);
  // And the decoder is clean again: a full frame parses.
  dec.PushBytes(buf.data(), buf.size(), got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(dec.FlushTruncated());
}

TEST(NetFrame, RandomGarbageFuzzNeverCrashes) {
  Rng rng(31415);
  FrameDecoder dec;
  std::vector<Frame> got;
  for (int trial = 0; trial < 2000; ++trial) {
    auto junk = RandomPayload(rng, 50);
    dec.PushBytes(junk.data(), junk.size(), got);
  }
  // Every emitted frame, if any, passed a 32-bit checksum over random
  // bytes — astronomically unlikely; mostly this pins "no crash".
  EXPECT_LE(got.size(), 2u);
}

TEST(NetFrame, BitFlipFuzzNeverYieldsWrongPayload) {
  Rng rng(2718);
  for (int trial = 0; trial < 1000; ++trial) {
    Frame f{RandomKind(rng), RandomPayload(rng, 80)};
    std::vector<std::uint8_t> buf;
    EncodeFrame(f.kind, f.payload, buf);
    std::uint64_t bit = rng.NextBelow(buf.size() * 8);
    buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    FrameDecoder dec;
    std::vector<Frame> got;
    dec.PushBytes(buf.data(), buf.size(), got);
    if (got.size() == 1) {
      // Only a flip the checksum cannot see (inside the magic pair it
      // could not be — that kills the frame) may survive; payload must
      // be identical or the frame must have been rejected.
      EXPECT_EQ(got[0].payload, f.payload) << trial;
      EXPECT_EQ(got[0].kind, f.kind) << trial;
    }
  }
}

TEST(NetFrame, GatheredPayloadEncodesLikeAContiguousOne) {
  const std::vector<std::uint8_t> head = {9, 0xCE, 0x17};
  const std::vector<std::uint8_t> body = {1, 2, 3, 4};
  const std::vector<std::uint8_t> whole = {9, 0xCE, 0x17, 1, 2, 3, 4};
  std::vector<std::uint8_t> gathered, contiguous;
  EncodeFrame(FrameKind::kData, head.data(), head.size(), body.data(),
              body.size(), gathered);
  EncodeFrame(FrameKind::kData, whole, contiguous);
  EXPECT_EQ(gathered, contiguous);
}

// What FrameDecoder makes of one whole datagram, as a session used to
// read it: the frames, then the error count after FlushTruncated.
struct Decoded {
  std::vector<Frame> frames;
  std::uint64_t errors = 0;
};

Decoded ByDecoder(const std::vector<std::uint8_t>& dgram) {
  Decoded d;
  FrameDecoder dec;
  dec.PushBytes(dgram.data(), dgram.size(), d.frames);
  dec.FlushTruncated();
  d.errors = dec.errors();
  return d;
}

Decoded ByCursor(const std::vector<std::uint8_t>& dgram) {
  Decoded d;
  FrameCursor cursor(dgram.data(), dgram.size());
  FrameView v;
  while (cursor.Next(v)) {
    Frame f;
    f.kind = v.kind;
    f.payload.assign(v.payload, v.payload + v.len);
    d.frames.push_back(std::move(f));
  }
  EXPECT_FALSE(cursor.Next(v)) << "a finished cursor stays finished";
  d.errors = cursor.errors();
  return d;
}

void ExpectSameReading(const std::vector<std::uint8_t>& dgram,
                       const std::string& what) {
  const Decoded want = ByDecoder(dgram);
  const Decoded got = ByCursor(dgram);
  EXPECT_EQ(got.errors, want.errors) << what;
  ASSERT_EQ(got.frames.size(), want.frames.size()) << what;
  for (std::size_t i = 0; i < want.frames.size(); ++i) {
    EXPECT_EQ(got.frames[i].kind, want.frames[i].kind) << what;
    EXPECT_EQ(got.frames[i].payload, want.frames[i].payload) << what;
  }
}

TEST(NetFrame, CursorReadsEdgeCasesLikeTheDecoder) {
  std::vector<std::uint8_t> good;
  EncodeFrame(FrameKind::kAck, std::vector<std::uint8_t>{7, 8}, good);
  auto with = [&good](std::vector<std::uint8_t> prefix,
                      std::vector<std::uint8_t> suffix) {
    prefix.insert(prefix.end(), good.begin(), good.end());
    prefix.insert(prefix.end(), suffix.begin(), suffix.end());
    return prefix;
  };
  ExpectSameReading({}, "empty");
  ExpectSameReading(good, "clean");
  ExpectSameReading(with({}, {0xCE}), "trailing magic0");
  ExpectSameReading(with({}, {0xCE, 0x17}), "trailing magic pair");
  ExpectSameReading(with({0xCE}, {}), "stray magic0");
  ExpectSameReading(with({0xCE, 0xCE}, {}), "repeated magic0");
  ExpectSameReading(with({0xCE, 0x01}, {}), "magic0 then garbage");
  ExpectSameReading(with({0xCE, 0x17, 0x09}, {}), "bad kind");
  ExpectSameReading(with({0xCE, 0x17, 0x03, 0x80, 0x00}, {}), "overlong");
  ExpectSameReading(with({0xCE, 0x17, 0x03, 0x80, 0x80, 0x80, 0x80}, {}),
                    "length chain too long");
  ExpectSameReading(with({0xCE, 0x17, 0x03, 0xFF, 0x7F}, {}), "over cap");
  ExpectSameReading({0xCE, 0x17, 0x03, 0x80}, "truncated length");
  ExpectSameReading({0xCE, 0x17, 0x03, 0x05, 1, 2}, "truncated payload");
  const std::vector<std::uint8_t> cut(good.begin(), good.end() - 1);
  ExpectSameReading(cut, "truncated checksum");
  ExpectSameReading(with({}, good), "two frames");
  std::vector<std::uint8_t> bad_sum = good;
  bad_sum[4] ^= 1;  // the first payload byte: the checksum no longer fits
  ExpectSameReading(with(bad_sum, {}), "checksum mismatch, then a frame");
}

TEST(NetFrame, CursorReadsMangledDatagramsLikeTheDecoder) {
  Rng rng(8128);
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<std::uint8_t> dgram;
    const std::uint64_t frames = rng.NextBelow(4);
    for (std::uint64_t i = 0; i < frames; ++i) {
      // Payloads up to past the cap, so oversized frames appear too.
      const std::size_t max = rng.NextBelow(8) == 0 ? 1400 : 60;
      EncodeFrame(RandomKind(rng), RandomPayload(rng, max), dgram);
    }
    switch (rng.NextBelow(5)) {
      case 0: {  // bit flips
        const std::uint64_t flips = dgram.empty() ? 0 : 1 + rng.NextBelow(4);
        for (std::uint64_t f = 0; f < flips; ++f) {
          const std::uint64_t bit = rng.NextBelow(dgram.size() * 8);
          dgram[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        break;
      }
      case 1:  // truncation
        dgram.resize(rng.NextBelow(dgram.size() + 1));
        break;
      case 2: {  // garbage, biased towards the magic bytes
        const std::size_t at = rng.NextBelow(dgram.size() + 1);
        std::vector<std::uint8_t> junk(1 + rng.NextBelow(6));
        for (auto& b : junk) {
          b = static_cast<std::uint8_t>(rng.NextBelow(256));
          if (rng.NextBelow(2) == 0) b = rng.NextBelow(2) ? 0xCE : 0x17;
        }
        dgram.insert(dgram.begin() + static_cast<std::ptrdiff_t>(at),
                     junk.begin(), junk.end());
        break;
      }
      case 3:  // pure noise
        dgram = RandomPayload(rng, 40);
        break;
      default:  // intact
        break;
    }
    ExpectSameReading(dgram, "trial " + std::to_string(trial));
  }
}

std::vector<std::uint8_t> Bytes(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

TEST(NetDatagramPool, DatagramsLongerThanASlotRoundTrip) {
  Rng rng(41);
  DatagramPool pool;
  for (std::size_t len : {0, 1, 127, 128, 129, 300, 4'000}) {
    std::vector<std::uint8_t> dgram(len);
    for (auto& b : dgram) b = static_cast<std::uint8_t>(rng.NextBelow(256));
    const DatagramPool::Handle h = pool.Store(dgram);
    EXPECT_EQ(Bytes(pool.bytes(h)), dgram) << "length " << len;
    // The slot, and any spill buffer it took, serve the next datagram.
    pool.Release(h);
  }
  const std::vector<std::uint8_t> longer(600, 0xAB);
  const std::vector<std::uint8_t> shorter = {1, 2, 3};
  const DatagramPool::Handle a = pool.Store(longer);
  const DatagramPool::Handle b = pool.Store(shorter);
  EXPECT_EQ(Bytes(pool.bytes(a)), longer);
  EXPECT_EQ(Bytes(std::as_const(pool).bytes(b)), shorter);
}

TEST(NetDatagramPool, HeldBytesSurviveGrowthPastChunkBoundaries) {
  // A session may read its inbox datagram through a span while its
  // own flush stores new datagrams; the slot must not move meanwhile.
  DatagramPool pool;
  const std::vector<std::uint8_t> early = {9, 8, 7, 6, 5};
  const std::vector<std::uint8_t> early_long(200, 0x5A);
  const DatagramPool::Handle h = pool.Store(early);
  const DatagramPool::Handle h_long = pool.Store(early_long);
  const std::span<const std::uint8_t> held = pool.bytes(h);
  const std::span<const std::uint8_t> held_long = pool.bytes(h_long);
  const std::size_t slots_before = pool.slots();
  std::vector<DatagramPool::Handle> later;
  for (int i = 0; i < 1'000; ++i) {
    std::vector<std::uint8_t> d(1 + i % 200, static_cast<std::uint8_t>(i));
    later.push_back(pool.Store(d));
  }
  EXPECT_GT(pool.slots(), 8 * slots_before) << "no chunk boundary crossed";
  EXPECT_EQ(Bytes(held), early);
  EXPECT_EQ(Bytes(held_long), early_long);
  EXPECT_EQ(pool.bytes(h).data(), held.data());
  for (int i = 0; i < 1'000; ++i) {
    const auto d = pool.bytes(later[i]);
    ASSERT_EQ(d.size(), 1u + i % 200);
    EXPECT_TRUE(std::all_of(d.begin(), d.end(), [i](std::uint8_t b) {
      return b == static_cast<std::uint8_t>(i);
    }));
  }
}

TEST(NetDatagramPool, ReleasedSlotsAreReusedWithoutGrowth) {
  DatagramPool pool;
  const std::vector<std::uint8_t> dgram(64, 1);
  std::set<DatagramPool::Handle> first;
  for (int i = 0; i < 100; ++i) first.insert(pool.Store(dgram));
  ASSERT_EQ(first.size(), 100u);
  const std::size_t slots = pool.slots();
  for (int round = 0; round < 5; ++round) {
    for (DatagramPool::Handle h : first) pool.Release(h);
    std::set<DatagramPool::Handle> again;
    for (int i = 0; i < 100; ++i) again.insert(pool.Store(dgram));
    EXPECT_EQ(again, first);
    EXPECT_EQ(pool.slots(), slots);
  }
}

}  // namespace
}  // namespace celect::net
