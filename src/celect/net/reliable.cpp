#include "celect/net/reliable.h"

#include <algorithm>
#include <cstring>

#include "celect/obs/shard.h"
#include "celect/util/logging.h"
#include "celect/wire/packet_codec.h"
#include "celect/wire/varint.h"

namespace celect::net {

namespace {

// How far above recv_next_ an out-of-order frame may sit and still be
// buffered. Anything beyond is dropped (the sender's window is far
// smaller, so only corruption gets here).
constexpr std::uint64_t kRecvWindow = 256;
// Ceiling on the RTT samples one endpoint keeps across its sessions
// (each session's own is SessionParams::rtt_sample_cap); overflow is
// counted, never silent.
constexpr std::size_t kMaxRttSamples = 4096;
// Retransmit backoff doubles from SessionParams::rto_initial up to this
// ceiling, and every timeout is jittered by +/- this percentage.
constexpr Micros kRtoMax = 1'000'000;
constexpr Micros kJitterPct = 25;

// First-use sizes of the session's buffers, from the high-water marks
// of the net_chaos elections' sessions: a few packets queued or
// delivered at once, tens of bytes each. More than 99% of sessions
// never grow past them.
constexpr std::size_t kQueueReserve = 4;
constexpr std::size_t kPacketBytesReserve = 64;
constexpr std::size_t kDeliveredReserve = 4;
// And of the endpoint's: one frame payload, one session call's
// datagrams, and the RTT samples of a short run.
constexpr std::size_t kScratchReserve = 64;
constexpr std::size_t kOutboxBytesReserve = 512;
constexpr std::size_t kOutboxDatagramsReserve = 16;
constexpr std::size_t kRttSamplesReserve = 64;

}  // namespace

SessionEndpoint::SessionEndpoint() {
  scratch.reserve(kScratchReserve);
  outbox.reserve(kOutboxBytesReserve, kOutboxDatagramsReserve);
}

ReliableSession::ReliableSession(std::uint64_t local_epoch,
                                 const SessionParams& params,
                                 SessionEndpoint& endpoint)
    : params_(params),
      rng_(SplitMix64(params.seed ^ local_epoch).Next()),
      local_epoch_(local_epoch == 0 ? 1 : local_epoch),
      endpoint_(&endpoint) {}

void ReliableSession::Flight(Micros now, obs::FlightKind kind,
                             std::uint64_t a, std::uint64_t b) {
  if (params_.recorder != nullptr) {
    params_.recorder->Note(now, params_.recorder_peer, kind, a, b);
  }
}

void ReliableSession::NoteRttSample(Micros rtt) {
  SessionStats& st = endpoint_->stats;
  st.rtt_us.Add(rtt);
  if (rtt_kept_ < params_.rtt_sample_cap) {
    ++rtt_kept_;
    if (st.rtt_samples.size() < kMaxRttSamples) {
      if (st.rtt_samples.empty()) st.rtt_samples.reserve(kRttSamplesReserve);
      st.rtt_samples.push_back(rtt);
    } else {
      ++st.rtt_samples_dropped;
    }
    return;
  }
  ++st.rtt_samples_dropped;
  if (!rtt_cap_warned_) {
    rtt_cap_warned_ = true;
    CELECT_LOG(Warn) << "rtt sample cap (" << params_.rtt_sample_cap
                     << ") hit; further samples counted in "
                        "rtt_samples_dropped, percentiles over the "
                        "sample vector are truncated";
  }
}

Micros ReliableSession::Backoff(std::uint32_t retries) {
  std::uint32_t shift = std::min(retries, 10u);
  Micros base = params_.rto_initial << shift;
  base = std::min(base, kRtoMax);
  Micros span = base * kJitterPct / 100;
  if (span == 0) return base;
  // Uniform in [base - span, base + span].
  return base - span + rng_.NextBelow(2 * span + 1);
}

std::uint64_t ReliableSession::AckBits() const {
  std::uint64_t bits = 0;
  for (const auto& [seq, pkt] : reorder_) {
    std::uint64_t off = seq - recv_next_;  // >= 1 by invariant
    if (off == 0 || off > 64) continue;
    bits |= 1ULL << (off - 1);
  }
  return bits;
}

void ReliableSession::EmitFrame(FrameKind kind, const std::uint8_t* body,
                                std::size_t body_len) {
  const std::vector<std::uint8_t>& head = endpoint_->scratch;
  DatagramQueue& outbox = endpoint_->outbox;
  EncodeFrame(kind, head.data(), head.size(), body, body_len,
              outbox.buffer());
  outbox.Seal();
}

void ReliableSession::Repack(Stored& s, std::size_t& end) {
  if (s.offset != end) {
    std::memmove(packet_bytes_.data() + end, packet_bytes_.data() + s.offset,
                 s.len);
    s.offset = end;
  }
  end += s.len;
}

std::uint64_t ReliableSession::OldestUnsentOrUnacked() const {
  return in_flight_ == 0 ? next_seq_ : queue_.front().seq;
}

void ReliableSession::SendHello(Micros now) {
  std::vector<std::uint8_t>& head = endpoint_->scratch;
  head.clear();
  wire::PutVarint(head, local_epoch_);
  wire::PutVarint(head, OldestUnsentOrUnacked());
  wire::PutVarint(head, kWireVersion);
  EmitFrame(FrameKind::kHello);
  ++endpoint_->stats.hellos_sent;
  next_hello_at_ = now + Backoff(hello_retries_);
}

void ReliableSession::SendHelloAck(Micros) {
  std::vector<std::uint8_t>& head = endpoint_->scratch;
  head.clear();
  wire::PutVarint(head, local_epoch_);
  wire::PutVarint(head, remote_epoch_);
  wire::PutVarint(head, OldestUnsentOrUnacked());
  wire::PutVarint(head, kWireVersion);
  EmitFrame(FrameKind::kHelloAck);
  ++endpoint_->stats.hello_acks_sent;
}

void ReliableSession::SendAck() {
  std::vector<std::uint8_t>& head = endpoint_->scratch;
  head.clear();
  wire::PutVarint(head, local_epoch_);
  wire::PutVarint(head, recv_next_);
  wire::PutVarint(head, AckBits());
  EmitFrame(FrameKind::kAck);
  ++endpoint_->stats.acks_sent;
  ack_dirty_ = false;
}

void ReliableSession::SendReset(Micros now) {
  std::vector<std::uint8_t>& head = endpoint_->scratch;
  head.clear();
  wire::PutVarint(head, local_epoch_);
  EmitFrame(FrameKind::kReset);
  ++endpoint_->stats.resets_sent;
  Flight(now, obs::FlightKind::kResetSent, local_epoch_);
}

void ReliableSession::TransmitData(Outgoing& u, Micros now,
                                   bool retransmit) {
  std::vector<std::uint8_t>& head = endpoint_->scratch;
  head.clear();
  // Acks are stamped at (re)transmit time, never stored, so a frame
  // retransmitted after a peer restart carries acks for the *current*
  // receive stream. The trace context is the opposite: stamped once at
  // SendPacket and frozen, because it names the logical message, not
  // the transmission.
  wire::PutVarint(head, local_epoch_);
  wire::PutVarint(head, u.seq);
  wire::PutVarint(head, recv_next_);
  wire::PutVarint(head, AckBits());
  wire::PutVarint(head, u.tc.clock);
  wire::PutVarint(head, u.tc.mid);
  EmitFrame(FrameKind::kData, packet_bytes_.data() + u.bytes.offset,
            u.bytes.len);
  if (retransmit) {
    ++endpoint_->stats.data_retransmits;
    ++u.retries;
  } else {
    ++endpoint_->stats.data_sent;
    u.first_sent = now;
    endpoint_->stats.window.Add(in_flight_);
  }
  Micros backoff = Backoff(u.retries);
  u.next_retx = now + backoff;
  if (retransmit) {
    endpoint_->stats.backoff_us.Add(backoff);
    Flight(now, obs::FlightKind::kRetransmit, u.seq, backoff);
  }
  ack_dirty_ = false;  // acks rode along
}

void ReliableSession::FillWindow(Micros now) {
  if (!established_) return;
  while (in_flight_ < queue_.size() && in_flight_ < params_.window) {
    Outgoing& u = queue_[in_flight_++];
    u.seq = next_seq_++;
    TransmitData(u, now, /*retransmit=*/false);
  }
}

void ReliableSession::Start(Micros now) {
  if (started_) return;
  started_ = true;
  hello_retries_ = 0;
  Flight(now, obs::FlightKind::kSessionStart, local_epoch_);
  SendHello(now);
}

void ReliableSession::SendPacket(const wire::Packet& p, Micros now,
                                 TraceContext tc) {
  Start(now);
  if (queue_.capacity() == 0) {
    queue_.reserve(kQueueReserve);
    packet_bytes_.reserve(kPacketBytesReserve);
  }
  Outgoing& u = queue_.emplace_back();
  u.bytes.offset = packet_bytes_.size();
  wire::EncodeTo(p, packet_bytes_);
  u.bytes.len = packet_bytes_.size() - u.bytes.offset;
  u.tc = tc;
  FillWindow(now);
  if (queued() != 0) {
    // The window (or the handshake) is holding this packet back.
    Flight(now, obs::FlightKind::kWindowStall, queued());
  }
}

void ReliableSession::NoteProgress(Micros now) {
  if (suspect_signalled_) {
    Micros duration = now - suspect_since_;
    endpoint_->stats.suspicion_us.Add(duration);
    Flight(now, obs::FlightKind::kSuspectEnd, duration);
  }
  suspect_signalled_ = false;
  suspect_pending_ = false;
  for (std::size_t i = 0; i < in_flight_; ++i) queue_[i].exhausted = false;
}

void ReliableSession::NoteExhaustion(Outgoing* u, Micros now) {
  if (u != nullptr) {
    if (u->exhausted) return;  // count each frame's budget once
    u->exhausted = true;
  }
  ++endpoint_->stats.exhaustions;
  // The first exhaustion since the last ack progress opens a suspect
  // episode; the flight event records that one-exhaustion streak.
  if (!suspect_signalled_) {
    suspect_pending_ = true;
    suspect_signalled_ = true;
    suspect_since_ = now;
    ++endpoint_->stats.suspicions;
    Flight(now, obs::FlightKind::kSuspectBegin, 1);
  }
}

void ReliableSession::ProcessAck(std::uint64_t cum, std::uint64_t bits,
                                 Micros now) {
  if (cum > next_seq_) return;  // insane ack; corrupt or hostile
  // Compacts the queue in place, keeping seq order, and repacks the
  // packet bytes of what stays over those of the acked frames.
  std::size_t kept = 0;
  std::size_t end = 0;
  for (std::size_t i = 0; i < in_flight_; ++i) {
    Outgoing& u = queue_[i];
    std::uint64_t seq = u.seq;
    bool acked = seq < cum;
    if (!acked && seq > cum) {
      std::uint64_t off = seq - cum;
      if (off >= 1 && off <= 64) acked = (bits >> (off - 1)) & 1;
    }
    if (acked) {
      if (u.retries == 0) {
        // Karn's rule: only never-retransmitted frames give clean RTTs.
        NoteRttSample(now - u.first_sent);
      }
    } else {
      Repack(u.bytes, end);
      queue_[kept++] = u;
    }
  }
  if (kept == in_flight_) return;  // no progress
  // The waiting packets follow what stays in flight.
  const std::size_t waiting = queue_.size() - in_flight_;
  for (std::size_t i = 0; i < waiting; ++i) {
    Outgoing& u = queue_[in_flight_ + i];
    Repack(u.bytes, end);
    queue_[kept + i] = u;
  }
  queue_.resize(kept + waiting);
  packet_bytes_.resize(end);
  in_flight_ = kept;
  NoteProgress(now);
  FillWindow(now);
}

void ReliableSession::AdoptRemote(std::uint64_t epoch,
                                  std::uint64_t start_seq, Micros now) {
  bool restart = remote_epoch_ != 0 && remote_epoch_ != epoch;
  remote_epoch_ = epoch;
  recv_next_ = start_seq;
  reorder_.clear();
  ack_dirty_ = false;
  if (restart) {
    ++endpoint_->stats.peer_restarts;
    peer_restart_pending_ = true;
    Flight(now, obs::FlightKind::kEpochAdopt, epoch);
    // The new incarnation has no session state for us: freeze the send
    // window and re-run the handshake so its receive stream is seeded
    // with our oldest unacked seq before any retransmits land.
    established_ = false;
    started_ = true;
    hello_retries_ = 0;
    NoteProgress(now);
    SendHello(now);
  }
}

void ReliableSession::OnHello(const FrameView& f, Micros now) {
  wire::VarintReader r(f.payload, f.len);
  auto epoch = r.ReadVarint();
  auto start = r.ReadVarint();
  auto version = r.ReadVarint();
  if (!epoch || !start || *epoch == 0) {
    ++endpoint_->stats.decode_errors;
    return;
  }
  // A missing version field is a version-1 peer. Reject anything but
  // our own version at the door: no adopt, no HelloAck, so the old
  // peer keeps re-helloing and its operator sees a stuck handshake
  // plus our counter, instead of misparsed Data payloads later.
  if (!version || *version != kWireVersion) {
    ++endpoint_->stats.version_mismatch;
    Flight(now, obs::FlightKind::kVersionMismatch, version ? *version : 1);
    return;
  }
  if (remote_epoch_ == 0 || *epoch != remote_epoch_) {
    AdoptRemote(*epoch, *start, now);
  }
  // A duplicate Hello for the current epoch means our HelloAck was
  // lost (or is in flight); answering again is idempotent.
  SendHelloAck(now);
}

void ReliableSession::OnHelloAck(const FrameView& f, Micros now) {
  wire::VarintReader r(f.payload, f.len);
  auto epoch = r.ReadVarint();
  auto echoed = r.ReadVarint();
  auto start = r.ReadVarint();
  auto version = r.ReadVarint();
  if (!epoch || !echoed || !start || *epoch == 0) {
    ++endpoint_->stats.decode_errors;
    return;
  }
  if (!version || *version != kWireVersion) {
    ++endpoint_->stats.version_mismatch;
    Flight(now, obs::FlightKind::kVersionMismatch, version ? *version : 1);
    return;
  }
  if (*echoed != local_epoch_) {
    // Meant for a previous incarnation of this node.
    ++endpoint_->stats.stale_epoch;
    return;
  }
  if (remote_epoch_ == 0 || *epoch != remote_epoch_) {
    AdoptRemote(*epoch, *start, now);
  }
  // The peer echoed our epoch, so it can accept our data stream.
  bool was_established = established_;
  established_ = true;
  if (!was_established) {
    Flight(now, obs::FlightKind::kEstablished, remote_epoch_);
  }
  NoteProgress(now);
  if (!was_established) {
    // Retransmit anything already in flight promptly: if this HelloAck
    // answers a re-handshake after a peer restart, the peer's receive
    // stream was just seeded and is waiting on these. Gated on the
    // establishing transition — a duplicated HelloAck must not blast
    // the whole window again — and run before FillWindow so frames
    // first sent right now aren't re-sent.
    for (std::size_t i = 0; i < in_flight_; ++i) {
      Outgoing& u = queue_[i];
      if (u.retries <= params_.max_retries) TransmitData(u, now, true);
    }
  }
  FillWindow(now);
}

void ReliableSession::OnData(const FrameView& f, Micros now) {
  wire::VarintReader r(f.payload, f.len);
  auto epoch = r.ReadVarint();
  auto seq = r.ReadVarint();
  auto cum = r.ReadVarint();
  auto bits = r.ReadVarint();
  auto tc_clock = r.ReadVarint();
  auto tc_mid = r.ReadVarint();
  if (!epoch || !seq || !cum || !bits || !tc_clock || !tc_mid) {
    ++endpoint_->stats.decode_errors;
    return;
  }
  if (*epoch != remote_epoch_ || remote_epoch_ == 0) {
    // Unknown or dead incarnation: we cannot place its seqs. Ask it to
    // re-hello rather than guessing a receive stream.
    ++endpoint_->stats.stale_epoch;
    SendReset(now);
    return;
  }
  // Data only flows once the peer holds our epoch, so the handshake is
  // implicitly complete even if the HelloAck itself was lost. Open the
  // send window here too — the hello retry loop stops on this flag, so
  // this path must do everything OnHelloAck would have.
  if (!established_) {
    established_ = true;
    Flight(now, obs::FlightKind::kEstablished, remote_epoch_);
    NoteProgress(now);
    FillWindow(now);
  }
  ProcessAck(*cum, *bits, now);
  std::uint64_t s = *seq;
  if (s < recv_next_) {
    ++endpoint_->stats.duplicates;
    ack_dirty_ = true;  // re-ack so the sender stops retransmitting
    return;
  }
  wire::DecodeStatus status;
  auto pkt = wire::Decode(f.payload + r.position(), f.len - r.position(),
                          status);
  if (!pkt) {
    // The frame checksum passed but the inner packet is malformed —
    // nothing a retransmit would fix, so consume the seq rather than
    // wedging the stream on it.
    ++endpoint_->stats.decode_errors;
    if (s == recv_next_) {
      ++recv_next_;
      ack_dirty_ = true;
    }
    return;
  }
  TraceContext tc{*tc_clock, *tc_mid};
  if (s == recv_next_) {
    Deliver(Delivered{std::move(*pkt), tc});
    // Drain any buffered successors.
    std::size_t drained = 0;
    while (drained < reorder_.size() &&
           reorder_[drained].first == recv_next_) {
      Deliver(std::move(reorder_[drained++].second));
    }
    reorder_.erase(reorder_.begin(),
                   reorder_.begin() + static_cast<std::ptrdiff_t>(drained));
  } else if (s - recv_next_ <= kRecvWindow) {
    auto by_seq = [](const auto& held, std::uint64_t seq) {
      return held.first < seq;
    };
    auto it = std::lower_bound(reorder_.begin(), reorder_.end(), s, by_seq);
    if (it != reorder_.end() && it->first == s) {
      ++endpoint_->stats.duplicates;
    } else {
      reorder_.insert(it, {s, Delivered{std::move(*pkt), tc}});
      ++endpoint_->stats.out_of_order;
    }
  } else {
    ++endpoint_->stats.dropped_beyond_window;
  }
  ack_dirty_ = true;
}

void ReliableSession::Deliver(Delivered d) {
  if (delivered_.capacity() == 0) delivered_.reserve(kDeliveredReserve);
  delivered_.push_back(std::move(d));
  ++endpoint_->stats.delivered;
  ++recv_next_;
}

void ReliableSession::OnAck(const FrameView& f, Micros now) {
  wire::VarintReader r(f.payload, f.len);
  auto epoch = r.ReadVarint();
  auto cum = r.ReadVarint();
  auto bits = r.ReadVarint();
  if (!epoch || !cum || !bits) {
    ++endpoint_->stats.decode_errors;
    return;
  }
  if (*epoch != remote_epoch_ || remote_epoch_ == 0) {
    // An ack from a dead incarnation must not mark frames the new one
    // never saw as delivered.
    ++endpoint_->stats.stale_epoch;
    return;
  }
  if (!established_) {
    established_ = true;
    Flight(now, obs::FlightKind::kEstablished, remote_epoch_);
    NoteProgress(now);
    FillWindow(now);
  }
  ProcessAck(*cum, *bits, now);
}

void ReliableSession::OnReset(const FrameView& f, Micros now) {
  wire::VarintReader r(f.payload, f.len);
  auto epoch = r.ReadVarint();
  if (!epoch) {
    ++endpoint_->stats.decode_errors;
    return;
  }
  ++endpoint_->stats.resets_received;
  Flight(now, obs::FlightKind::kResetReceived, local_epoch_);
  // The peer has no session for our epoch; re-run the handshake. Keep
  // the send window intact — seqs survive, the Hello re-seeds the
  // peer's receive stream at our oldest unacked frame.
  if (started_) {
    established_ = false;
    hello_retries_ = 0;
    SendHello(now);
  }
}

void ReliableSession::OnDatagram(const std::uint8_t* data, std::size_t size,
                                 Micros now) {
  FrameCursor frames(data, size);
  FrameView f;
  while (frames.Next(f)) {
    switch (f.kind) {
      case FrameKind::kHello:
        OnHello(f, now);
        break;
      case FrameKind::kHelloAck:
        OnHelloAck(f, now);
        break;
      case FrameKind::kData:
        OnData(f, now);
        break;
      case FrameKind::kAck:
        OnAck(f, now);
        break;
      case FrameKind::kReset:
        OnReset(f, now);
        break;
    }
  }
  endpoint_->stats.frame_errors += frames.errors();
  if (ack_dirty_) SendAck();
}

void ReliableSession::Tick(Micros now) {
  if (started_ && !established_ && now >= next_hello_at_) {
    ++hello_retries_;
    if (hello_retries_ > params_.max_retries) {
      hello_retries_ = params_.max_retries;  // stay at the ceiling
      NoteExhaustion(nullptr, now);
    }
    Flight(now, obs::FlightKind::kHelloRetry, hello_retries_);
    SendHello(now);
  }
  if (established_) {
    for (std::size_t i = 0; i < in_flight_; ++i) {
      Outgoing& u = queue_[i];
      if (now < u.next_retx) continue;
      if (u.retries >= params_.max_retries) {
        NoteExhaustion(&u, now);
        // Keep probing at the ceiling so a revived peer still recovers.
        u.retries = params_.max_retries;
      }
      TransmitData(u, now, /*retransmit=*/true);
    }
  }
  if (ack_dirty_) SendAck();
}

bool ReliableSession::TakeSuspect() {
  bool s = suspect_pending_;
  suspect_pending_ = false;
  return s;
}

bool ReliableSession::TakePeerRestart() {
  bool s = peer_restart_pending_;
  peer_restart_pending_ = false;
  return s;
}

std::optional<Micros> ReliableSession::NextWake() const {
  std::optional<Micros> wake;
  auto consider = [&wake](Micros t) {
    if (!wake || t < *wake) wake = t;
  };
  if (started_ && !established_) consider(next_hello_at_);
  if (established_) {
    for (std::size_t i = 0; i < in_flight_; ++i) {
      consider(queue_[i].next_retx);
    }
  }
  return wake;
}

}  // namespace celect::net
