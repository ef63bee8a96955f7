// Reliability-session tests: a differential suite driving two sessions
// through seeded FakeLinks. Chaos sweeps assert exactly-once in-order
// delivery under loss/duplication/reordering/corruption, with bounded
// retransmit effort; epoch tests pin restart detection and stale-session
// rejection; the handshake tests cover kill-during-handshake and the
// suspicion episode lifecycle. Everything runs on a VirtualClock and is
// bit-reproducible per seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "celect/net/fake_link.h"
#include "celect/net/reliable.h"
#include "celect/wire/checksum.h"
#include "celect/wire/packet_codec.h"
#include "celect/wire/varint.h"

namespace celect::net {
namespace {

wire::Packet MakePacket(std::int64_t tag) {
  wire::Packet p;
  p.type = 7;
  p.fields.push_back(tag);
  return p;
}

// One direction of a Pair: a FakeLink's chaos draws feeding the
// in-flight queue that SimNet keeps mesh-wide, here for one channel.
class Channel {
 public:
  // pool must outlive the channel; it keeps what is in flight.
  Channel(const FakeLinkParams& params, DatagramPool& pool)
      : params_(params), link_(params_, params.seed), pool_(&pool) {}
  Channel(const Channel&) = delete;  // link_ points at params_
  Channel& operator=(const Channel&) = delete;

  void Send(std::span<const std::uint8_t> dgram, Micros now) {
    link_.Admit(dgram, now,
                [&](std::span<const std::uint8_t> bytes, Micros at) {
                  const DatagramPool::Handle h = pool_->Store(bytes);
                  in_flight_.push_back(InFlight{at, order_++, h});
                  std::push_heap(in_flight_.begin(), in_flight_.end(),
                                 Later);
                  return pool_->bytes(h);
                });
  }

  // Earliest pending delivery, if any.
  std::optional<Micros> NextDelivery() const {
    if (in_flight_.empty()) return std::nullopt;
    return in_flight_.front().at;
  }

  // Appends the pool handle of every datagram due at or before now to
  // out, in (arrival, send order). The caller takes each handle over
  // and releases it to the pool once it has read the bytes.
  void DeliverDue(Micros now, std::vector<DatagramPool::Handle>& out) {
    while (!in_flight_.empty() && in_flight_.front().at <= now) {
      std::pop_heap(in_flight_.begin(), in_flight_.end(), Later);
      out.push_back(in_flight_.back().dgram);
      in_flight_.pop_back();
      ++delivered_;
    }
  }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t lost() const { return link_.lost(); }

 private:
  struct InFlight {
    Micros at;
    std::uint64_t order;  // tie-break: monotone send counter
    DatagramPool::Handle dgram;
  };
  // Heap order: the earliest (at, order) on top.
  static bool Later(const InFlight& a, const InFlight& b) {
    return a.at != b.at ? a.at > b.at : a.order > b.order;
  }

  FakeLinkParams params_;
  FakeLink link_;
  DatagramPool* pool_;
  std::vector<InFlight> in_flight_;  // min-heap under Later
  std::uint64_t order_ = 0;
  std::uint64_t delivered_ = 0;
};

// Two sessions joined by a chaos channel pair, plus a tiny event loop.
// Each side is an endpoint of its own, so a.stats() are a's alone.
struct Pair {
  VirtualClock clock;
  DatagramPool pool;  // the channels' in-flight bytes
  SessionEndpoint side_a;
  SessionEndpoint side_b;  // shared by every incarnation of b
  ReliableSession a;
  ReliableSession b;
  Channel ab;  // a -> b
  Channel ba;  // b -> a
  std::vector<wire::Packet> got_a;  // delivered to a
  std::vector<wire::Packet> got_b;
  std::vector<TraceContext> tc_b;   // trace context riding each delivery
  bool b_attached = true;  // false models a dead/unstarted peer

  // a's jitter stream is seed, b's seed + 1.
  Pair(const SessionParams& sp, const FakeLinkParams& lp,
       std::uint64_t seed = 1)
      : a(0xA, seed, sp, side_a),
        b(0xB, seed + 1, sp, side_b),
        ab(lp, pool), ba(WithSeed(lp, lp.seed + 1), pool) {}

  static FakeLinkParams WithSeed(FakeLinkParams lp, std::uint64_t seed) {
    lp.seed = seed;
    return lp;
  }

  void Flush() {
    Micros now = clock.Now();
    for (const auto d : a.outbox()) ab.Send(d, now);
    a.outbox().clear();
    for (const auto d : b.outbox()) {
      if (b_attached) ba.Send(d, now);
    }
    b.outbox().clear();
  }

  // Feeds every datagram link delivers by now to s (or drops them when
  // s is null), returning their pool slots.
  void Deliver(Channel& link, ReliableSession* s, Micros now) {
    std::vector<DatagramPool::Handle> due;
    link.DeliverDue(now, due);
    for (DatagramPool::Handle h : due) {
      const auto d = pool.bytes(h);
      if (s != nullptr) s->OnDatagram(d.data(), d.size(), now);
      pool.Release(h);
    }
  }

  void Pump() {
    Micros now = clock.Now();
    Deliver(ba, &a, now);
    Deliver(ab, b_attached ? &b : nullptr, now);
    a.Tick(now);
    if (b_attached) b.Tick(now);
    Flush();
    for (auto& d : a.delivered()) got_a.push_back(std::move(d.packet));
    a.delivered().clear();
    for (auto& d : b.delivered()) {
      tc_b.push_back(d.tc);
      got_b.push_back(std::move(d.packet));
    }
    b.delivered().clear();
  }

  std::optional<Micros> NextEvent() const {
    std::optional<Micros> next;
    auto consider = [&next](std::optional<Micros> t) {
      if (t && (!next || *t < *next)) next = t;
    };
    consider(ab.NextDelivery());
    consider(ba.NextDelivery());
    consider(a.NextWake());
    if (b_attached) consider(b.NextWake());
    return next;
  }

  // Runs the loop until `until` (or quiescence), pumping every event.
  void RunUntil(Micros until) {
    Pump();
    for (;;) {
      auto next = NextEvent();
      if (!next || *next > until) break;
      clock.AdvanceTo(std::max(*next, clock.Now() + 1));
      Pump();
    }
  }
};

TEST(NetReliable, CleanLinkDeliversInOrderExactlyOnce) {
  SessionParams sp;
  FakeLinkParams lp;
  Pair pair(sp, lp);
  for (int i = 0; i < 100; ++i) {
    pair.a.SendPacket(MakePacket(i), pair.clock.Now());
  }
  pair.RunUntil(5'000'000);
  ASSERT_EQ(pair.got_b.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(pair.got_b[i].field(0), i);
  EXPECT_TRUE(pair.a.established());
  EXPECT_TRUE(pair.b.established());
  EXPECT_EQ(pair.a.stats().data_retransmits, 0u);
  EXPECT_EQ(pair.b.stats().duplicates, 0u);
}

TEST(NetReliable, WindowBoundsInFlightFrames) {
  SessionParams sp;
  FakeLinkParams lp;
  Pair pair(sp, lp);
  for (int i = 0; i < 50; ++i) {
    pair.a.SendPacket(MakePacket(i), pair.clock.Now());
  }
  // Once the handshake completes, the 50 packets fill the 32-frame
  // window and the rest queue behind it.
  std::size_t peak = 0;
  pair.Pump();
  for (auto next = pair.NextEvent(); next && *next <= 10'000'000;
       next = pair.NextEvent()) {
    pair.clock.AdvanceTo(std::max(*next, pair.clock.Now() + 1));
    pair.Pump();
    EXPECT_LE(pair.a.in_flight(), 32u);
    if (pair.a.in_flight() > peak) {
      peak = pair.a.in_flight();
      EXPECT_EQ(pair.a.queued(), 50u - peak);
    }
  }
  EXPECT_EQ(peak, 32u);
  EXPECT_EQ(pair.got_b.size(), 50u);
  EXPECT_EQ(pair.a.in_flight(), 0u);
  EXPECT_EQ(pair.a.queued(), 0u);
}

TEST(NetReliable, DifferentialChaosSweep) {
  // Sweep seeded chaos rates; under every mix the contract holds:
  // exactly-once, in-order, both directions, with retransmit effort
  // bounded by a small multiple of the traffic.
  struct Mix {
    double loss, dup, reorder, corrupt;
  };
  const Mix mixes[] = {
      {0.00, 0.00, 0.00, 0.00},
      {0.10, 0.00, 0.00, 0.00},
      {0.00, 0.20, 0.30, 0.00},
      {0.00, 0.00, 0.00, 0.05},
      {0.15, 0.10, 0.20, 0.02},
      {0.30, 0.10, 0.10, 0.05},
  };
  for (const Mix& m : mixes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SessionParams sp;
      sp.rto_initial = 20'000;
      FakeLinkParams lp;
      lp.loss = m.loss;
      lp.duplicate = m.dup;
      lp.reorder = m.reorder;
      lp.corrupt = m.corrupt;
      lp.seed = seed * 101;
      Pair pair(sp, lp, seed);
      constexpr int kForward = 160;
      constexpr int kBackward = 40;
      for (int i = 0; i < kForward; ++i) {
        pair.a.SendPacket(MakePacket(i), pair.clock.Now());
      }
      for (int i = 0; i < kBackward; ++i) {
        pair.b.SendPacket(MakePacket(1000 + i), pair.clock.Now());
      }
      pair.RunUntil(120'000'000);
      ASSERT_EQ(pair.got_b.size(), static_cast<std::size_t>(kForward))
          << "loss=" << m.loss << " seed=" << seed;
      ASSERT_EQ(pair.got_a.size(), static_cast<std::size_t>(kBackward))
          << "loss=" << m.loss << " seed=" << seed;
      for (int i = 0; i < kForward; ++i) {
        ASSERT_EQ(pair.got_b[i].field(0), i) << "out of order";
      }
      for (int i = 0; i < kBackward; ++i) {
        ASSERT_EQ(pair.got_a[i].field(0), 1000 + i) << "out of order";
      }
      // Retransmit effort stays proportional to traffic even at 30%
      // loss: each frame expects ~1/(1-p) transmissions; allow slack.
      EXPECT_LE(pair.a.stats().data_retransmits,
                static_cast<std::uint64_t>(kForward) * 4 + 64)
          << "loss=" << m.loss << " seed=" << seed;
    }
  }
}

std::uint64_t TranscriptHash(Pair& pair) {
  wire::Fnv1aStream h;
  auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h.Update(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  for (const auto& p : pair.got_b) {
    fold(static_cast<std::uint64_t>(p.field(0)));
  }
  for (const auto& p : pair.got_a) {
    fold(static_cast<std::uint64_t>(p.field(0)));
  }
  fold(pair.a.stats().data_retransmits);
  fold(pair.b.stats().acks_sent);
  fold(pair.ab.delivered());
  fold(pair.ba.lost());
  fold(pair.clock.Now());
  return h.Digest64();
}

TEST(NetReliable, ChaosRunsAreBitReproduciblePerSeed) {
  struct Transcript {
    std::uint64_t hash;
    std::uint64_t frame_errors_a, frame_errors_b;
    std::uint64_t decode_errors_a, decode_errors_b;
    bool operator==(const Transcript&) const = default;
  };
  auto run = [](std::uint64_t seed) {
    SessionParams sp;
    FakeLinkParams lp;
    lp.loss = 0.2;
    lp.duplicate = 0.1;
    lp.reorder = 0.2;
    lp.corrupt = 0.03;
    lp.seed = seed * 7;
    Pair pair(sp, lp, seed);
    for (int i = 0; i < 120; ++i) {
      pair.a.SendPacket(MakePacket(i), pair.clock.Now());
    }
    pair.RunUntil(60'000'000);
    const SessionStats& a = pair.a.stats();
    const SessionStats& b = pair.b.stats();
    return Transcript{TranscriptHash(pair), a.frame_errors, b.frame_errors,
                      a.decode_errors, b.decode_errors};
  };
  const Transcript one = run(1);
  const Transcript nine = run(9);
  EXPECT_EQ(one, run(1));
  EXPECT_EQ(nine, run(9));
  EXPECT_NE(one.hash, nine.hash);  // the seed actually steers the chaos
  // Pinned from the session that copied every frame out through
  // FrameDecoder, so reading frames in place is held to the old
  // accept/reject decisions under corruption, not only to itself.
  const Transcript pinned_one{14269660564658759263u, 5, 8, 0, 0};
  const Transcript pinned_nine{3798721056208849806u, 5, 4, 0, 0};
  EXPECT_EQ(one, pinned_one);
  EXPECT_EQ(nine, pinned_nine);
}

TEST(NetReliable, PeerRestartIsDetectedAndStreamResyncs) {
  SessionParams sp;
  FakeLinkParams lp;
  Pair pair(sp, lp);
  for (int i = 0; i < 10; ++i) {
    pair.a.SendPacket(MakePacket(i), pair.clock.Now());
  }
  pair.RunUntil(2'000'000);
  ASSERT_EQ(pair.got_b.size(), 10u);

  // Kill B: replace it with a fresh incarnation under a new epoch.
  pair.b = ReliableSession(0xB2, 99, sp, pair.side_b);
  pair.got_b.clear();
  // A keeps sending; B2 must Reset the unknown stream, the handshake
  // must re-run, and delivery must resume exactly once, in order.
  for (int i = 10; i < 20; ++i) {
    pair.a.SendPacket(MakePacket(i), pair.clock.Now());
  }
  pair.RunUntil(30'000'000);
  EXPECT_TRUE(pair.a.TakePeerRestart() || pair.a.stats().peer_restarts > 0);
  ASSERT_EQ(pair.got_b.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(pair.got_b[i].field(0), 10 + i);
  EXPECT_GE(pair.b.stats().resets_sent + pair.a.stats().resets_received, 0u);
}

TEST(NetReliable, StaleAcksFromDeadIncarnationAreRejected) {
  SessionParams sp;
  FakeLinkParams lp;
  Pair pair(sp, lp);
  pair.a.SendPacket(MakePacket(0), pair.clock.Now());
  pair.RunUntil(2'000'000);
  ASSERT_TRUE(pair.a.established());

  // Capture an ack datagram from the old B incarnation by making B ack
  // a fresh data frame, but deliver it to A only after B restarts.
  pair.a.SendPacket(MakePacket(1), pair.clock.Now());
  pair.Flush();
  Micros later = pair.clock.Now() + 1'000'000;
  pair.Deliver(pair.ab, &pair.b, later);
  pair.b.Tick(later);
  DatagramQueue stale_acks = pair.b.outbox();
  pair.b.outbox().clear();
  ASSERT_FALSE(stale_acks.empty());

  // B restarts; A adopts the new epoch; then the old ack arrives.
  pair.b = ReliableSession(0xB3, 77, sp, pair.side_b);
  pair.clock.AdvanceTo(later);
  pair.RunUntil(later + 20'000'000);
  std::uint64_t stale_before = pair.a.stats().stale_epoch;
  for (const auto d : stale_acks) {
    pair.a.OnDatagram(d.data(), d.size(), pair.clock.Now());
  }
  EXPECT_GT(pair.a.stats().stale_epoch, stale_before)
      << "an ack from a dead incarnation must be dropped as stale";
}

TEST(NetReliable, KillDuringHandshakeRaisesSuspicionThenRecovers) {
  SessionParams sp;
  sp.rto_initial = 10'000;
  sp.max_retries = 4;
  FakeLinkParams lp;
  Pair pair(sp, lp);
  pair.b_attached = false;  // the peer is dead before it ever answers
  pair.a.SendPacket(MakePacket(42), pair.clock.Now());
  bool suspected = false;
  pair.Pump();
  for (int step = 0; step < 400 && !suspected; ++step) {
    auto next = pair.NextEvent();
    ASSERT_TRUE(next.has_value()) << "handshake retry gave up silently";
    pair.clock.AdvanceTo(*next);
    pair.Pump();
    suspected = pair.a.TakeSuspect();
  }
  EXPECT_TRUE(suspected) << "hello exhaustion must raise suspicion";
  EXPECT_FALSE(pair.a.established());
  EXPECT_FALSE(pair.a.TakeSuspect()) << "one signal per episode";

  // The peer finally boots. The still-probing handshake must complete
  // and the queued packet must arrive.
  pair.b_attached = true;
  pair.RunUntil(pair.clock.Now() + 60'000'000);
  ASSERT_EQ(pair.got_b.size(), 1u);
  EXPECT_EQ(pair.got_b[0].field(0), 42);
  EXPECT_TRUE(pair.a.established());
}

TEST(NetReliable, SuspicionEpisodesResetOnRecovery) {
  SessionParams sp;
  sp.rto_initial = 10'000;
  sp.max_retries = 3;
  FakeLinkParams lp;
  Pair pair(sp, lp);
  pair.a.SendPacket(MakePacket(0), pair.clock.Now());
  pair.RunUntil(1'000'000);
  ASSERT_TRUE(pair.a.established());

  auto starve_until_suspect = [&pair]() {
    pair.b_attached = false;
    pair.a.SendPacket(MakePacket(1), pair.clock.Now());
    for (int step = 0; step < 400; ++step) {
      auto next = pair.NextEvent();
      if (!next) break;
      pair.clock.AdvanceTo(*next);
      pair.Pump();
      if (pair.a.TakeSuspect()) return true;
    }
    return false;
  };
  EXPECT_TRUE(starve_until_suspect());
  // Peer comes back: ack progress ends the episode...
  pair.b_attached = true;
  pair.RunUntil(pair.clock.Now() + 30'000'000);
  EXPECT_EQ(pair.a.in_flight(), 0u);
  // ...and a second outage raises a *new* episode.
  EXPECT_TRUE(starve_until_suspect());
  EXPECT_EQ(pair.a.stats().suspicions, 2u);
}

TEST(NetReliable, CorruptDatagramsNeverDeliverWrongPackets) {
  SessionParams sp;
  FakeLinkParams lp;
  lp.corrupt = 0.5;  // half of all datagrams take bit flips
  lp.seed = 1234;
  Pair pair(sp, lp);
  for (int i = 0; i < 60; ++i) {
    pair.a.SendPacket(MakePacket(i), pair.clock.Now());
  }
  pair.RunUntil(240'000'000);
  ASSERT_EQ(pair.got_b.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(pair.got_b[i].field(0), i);
  EXPECT_GT(pair.b.stats().frame_errors + pair.a.stats().frame_errors, 0u);
}

// The endpoint keeps its sessions' first 4,096 RTT samples.
constexpr std::size_t kRttCap = 4096;

TEST(NetReliable, RttSampleCapTruncatesVisibly) {
  SessionParams sp;
  FakeLinkParams lp;
  Pair pair(sp, lp);
  constexpr int kPackets = 5000;
  for (int i = 0; i < kPackets; ++i) {
    pair.a.SendPacket(MakePacket(i), pair.clock.Now());
  }
  pair.RunUntil(600'000'000);
  ASSERT_EQ(pair.got_b.size(), static_cast<std::size_t>(kPackets));
  const SessionStats& st = pair.a.stats();
  // Every packet gave a clean sample; the bounded percentile buffer
  // stops at the cap, the overflow is counted, and the histogram keeps
  // absorbing every sample.
  ASSERT_EQ(st.data_retransmits, 0u);
  EXPECT_EQ(st.rtt_us.count(), static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(st.rtt_samples.size(), kRttCap);
  EXPECT_EQ(st.rtt_samples_dropped, kPackets - kRttCap);
}

TEST(NetReliable, SessionsOfOneEndpointShareOneRttCap) {
  // Two sessions of one endpoint, each toward its own peer, whose
  // samples together overflow the cap while neither session's alone
  // does: the cap counts the endpoint's samples, not a session's.
  SessionParams sp;
  FakeLinkParams lp;
  Pair first(sp, lp, 1);
  Pair second(sp, lp, 3);
  second.a = ReliableSession(0xA2, 5, sp, first.side_a);
  constexpr int kPackets = 2500;
  for (Pair* pair : {&first, &second}) {
    for (int i = 0; i < kPackets; ++i) {
      pair->a.SendPacket(MakePacket(i), pair->clock.Now());
    }
    pair->RunUntil(600'000'000);
    ASSERT_EQ(pair->got_b.size(), static_cast<std::size_t>(kPackets));
  }
  const SessionStats& st = first.side_a.stats;
  EXPECT_EQ(&second.a.stats(), &st);
  ASSERT_EQ(st.data_retransmits, 0u);
  EXPECT_EQ(st.rtt_us.count(), 2u * kPackets);
  EXPECT_EQ(st.rtt_samples.size(), kRttCap);
  EXPECT_EQ(st.rtt_samples_dropped, 2 * kPackets - kRttCap);
}

TEST(NetReliable, SessionsOfOneEndpointShareItsStats) {
  // A hub endpoint with a session to each of two spokes, over clean
  // instant links. The hub's sessions record into one SessionEndpoint
  // and share its outbox, so each call's datagrams go out before the
  // next call, as SessionTable does it.
  SessionParams sp;
  SessionEndpoint hub;
  SessionEndpoint spoke_side[2];
  // Sessions 0 and 1 are the hub's, toward spokes 0 and 1; sessions 2
  // and 3 are the spokes', toward the hub. Session i talks to i ^ 2.
  std::vector<ReliableSession> session;
  session.emplace_back(0xA, 1, sp, hub);
  session.emplace_back(0xA, 2, sp, hub);
  session.emplace_back(0xB, 3, sp, spoke_side[0]);
  session.emplace_back(0xC, 4, sp, spoke_side[1]);
  // Datagrams in flight: (receiving session, bytes).
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> wire;
  auto flush = [&](std::size_t i) {
    for (const auto d : session[i].outbox()) {
      wire.emplace_back(i ^ 2, std::vector<std::uint8_t>(d.begin(), d.end()));
    }
    session[i].outbox().clear();
  };

  constexpr int kPackets = 10;
  Micros now = 0;
  for (int p = 0; p < kPackets; ++p) {
    for (std::size_t i = 0; i < 2; ++i) {
      session[i].SendPacket(MakePacket(100 * static_cast<int>(i) + p), now);
      flush(i);
    }
  }
  std::vector<wire::Packet> got[2];
  for (int step = 0; step < 100 && !wire.empty(); ++step) {
    now += 1'000;
    const auto arrived = std::move(wire);
    wire.clear();
    for (const auto& [to, bytes] : arrived) {
      session[to].OnDatagram(bytes.data(), bytes.size(), now);
      flush(to);
    }
    for (std::size_t i = 0; i < session.size(); ++i) {
      session[i].Tick(now);
      flush(i);
    }
    for (std::size_t k = 0; k < 2; ++k) {
      for (auto& d : session[2 + k].delivered()) got[k].push_back(d.packet);
      session[2 + k].delivered().clear();
    }
  }
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_EQ(got[k].size(), static_cast<std::size_t>(kPackets));
    for (int p = 0; p < kPackets; ++p) {
      EXPECT_EQ(got[k][p].field(0), 100 * static_cast<int>(k) + p);
    }
    EXPECT_EQ(session[k].in_flight(), 0u);
    EXPECT_EQ(&session[k].stats(), &hub.stats);
    EXPECT_EQ(spoke_side[k].stats.delivered,
              static_cast<std::uint64_t>(kPackets));
  }
  const SessionStats& st = hub.stats;
  EXPECT_EQ(st.data_sent, 2u * kPackets);
  EXPECT_EQ(st.data_retransmits, 0u);
  EXPECT_EQ(st.rtt_us.count(), 2u * kPackets);
}

TEST(NetReliable, WrongWireVersionIsRejectedAtTheDoor) {
  SessionParams sp;
  SessionEndpoint endpoint;
  ReliableSession s(0xB0B, 1, sp, endpoint);

  // A future-version peer: Hello carrying kWireVersion + 1.
  std::vector<std::uint8_t> payload;
  wire::PutVarint(payload, 0xA11CE);           // epoch
  wire::PutVarint(payload, 1);                 // start seq
  wire::PutVarint(payload, kWireVersion + 1);  // version
  std::vector<std::uint8_t> dgram;
  EncodeFrame(FrameKind::kHello, payload, dgram);
  s.OnDatagram(dgram.data(), dgram.size(), 1000);
  EXPECT_EQ(s.stats().version_mismatch, 1u);
  EXPECT_EQ(s.remote_epoch(), 0u);
  EXPECT_TRUE(s.outbox().empty()) << "no HelloAck for a rejected peer";

  // A version-1 peer: its Hello predates the version field entirely.
  payload.clear();
  wire::PutVarint(payload, 0xA11CE);
  wire::PutVarint(payload, 1);
  dgram.clear();
  EncodeFrame(FrameKind::kHello, payload, dgram);
  s.OnDatagram(dgram.data(), dgram.size(), 2000);
  EXPECT_EQ(s.stats().version_mismatch, 2u);
  EXPECT_FALSE(s.established());
  EXPECT_TRUE(s.outbox().empty());
}

TEST(NetReliable, TraceContextSurvivesTheWire) {
  SessionParams sp;
  FakeLinkParams lp;
  lp.loss = 0.2;  // retransmits must not re-stamp the frozen context
  lp.seed = 77;
  Pair pair(sp, lp);
  for (int i = 0; i < 40; ++i) {
    pair.a.SendPacket(MakePacket(i), pair.clock.Now(),
                      TraceContext{100u + static_cast<std::uint64_t>(i),
                                   5000u + static_cast<std::uint64_t>(i)});
  }
  pair.RunUntil(120'000'000);
  ASSERT_EQ(pair.got_b.size(), 40u);
  ASSERT_EQ(pair.tc_b.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(pair.got_b[i].field(0), i);
    EXPECT_EQ(pair.tc_b[i].clock, 100u + static_cast<std::uint64_t>(i));
    EXPECT_EQ(pair.tc_b[i].mid, 5000u + static_cast<std::uint64_t>(i));
  }
}

}  // namespace
}  // namespace celect::net
