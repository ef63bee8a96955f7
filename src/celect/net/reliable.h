// Per-peer reliability session over an unreliable datagram link.
//
// Gives the protocol layer exactly-once, in-order packet delivery on
// top of a link that loses, duplicates, reorders, and corrupts:
//
//   * a three-way-ish handshake (Hello / HelloAck) exchanging session
//     epochs, so a restarted peer — which lost all session state — is
//     detected (its epoch changed) and both directions resync instead
//     of feeding stale sequence numbers and acks into a fresh process;
//   * a sliding send window with per-frame retransmit timers, capped
//     exponential backoff, and seeded jitter;
//   * cumulative acks plus a selective-ack bitmask, duplicate
//     suppression, and an out-of-order reassembly buffer;
//   * a suspicion signal: when retransmits exhaust their budget with no
//     progress, the peer is reported suspect exactly once per episode —
//     the fault-tolerant election layer treats that as a crash hint.
//
// The class is a pure state machine: no clock, no sockets, no threads.
// Time enters as an explicit `now` argument, randomness from a seeded
// jitter stream, and output datagrams/delivered packets are pulled from
// queues — which is what makes the differential chaos suite over
// FakeLink bit-reproducible.
//
// Sessions are cheap to open. What every session of one transport
// endpoint can share lives in a SessionEndpoint its owner provides:
// the SessionStats they all record into, the scratch buffer frame
// payloads are built in, and the outbox their datagrams are packed
// into. A session itself holds only per-peer state, and each of its
// buffers is sized once on first use to what nearly every session
// needs, so opening one costs its own allocation plus a few more
// the first time it sends or delivers a packet.
//
// Buffers are reused, so a warmed-up session handles a datagram
// without heap traffic: a Data frame is gathered from its header plus
// the packet bytes stored at SendPacket, received frames are read in
// place inside the datagram, and the bytes of every queued packet
// share one buffer, repacked as acks free it. Each buffer grows only
// when its high-water mark doubles.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "celect/net/clock.h"
#include "celect/net/datagram.h"
#include "celect/net/frame.h"
#include "celect/obs/telemetry.h"
#include "celect/util/rng.h"
#include "celect/wire/packet.h"

namespace celect::obs {
class FlightRecorder;
enum class FlightKind : std::uint8_t;
}  // namespace celect::obs

namespace celect::net {

// Causal metadata riding inside every Data frame (wire version 2): the
// sender's Lamport clock at send time and the message uid pairing this
// wire message with its kSend trace record. Zeroes when the caller
// doesn't trace — the fields still travel so the wire format has one
// shape.
struct TraceContext {
  std::uint64_t clock = 0;
  std::uint64_t mid = 0;
};

struct SessionParams {
  Micros rto_initial = 40'000;     // first retransmit timeout
  std::uint32_t max_retries = 8;   // budget before a frame is "exhausted"
};

struct SessionStats {
  std::uint64_t hellos_sent = 0;
  std::uint64_t hello_acks_sent = 0;
  std::uint64_t data_sent = 0;          // first transmissions
  std::uint64_t data_retransmits = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t resets_sent = 0;
  std::uint64_t delivered = 0;          // packets handed to the app
  std::uint64_t duplicates = 0;         // already-delivered seqs dropped
  std::uint64_t out_of_order = 0;       // frames buffered for reassembly
  std::uint64_t dropped_beyond_window = 0;
  std::uint64_t stale_epoch = 0;        // frames from a dead incarnation
  std::uint64_t decode_errors = 0;      // checksummed-but-unparseable
  std::uint64_t frame_errors = 0;       // framing/CRC rejects
  std::uint64_t resets_received = 0;
  std::uint64_t peer_restarts = 0;      // new remote epoch adopted
  std::uint64_t exhaustions = 0;        // retransmit budgets spent
  std::uint64_t suspicions = 0;         // suspect episodes signalled
  std::uint64_t version_mismatch = 0;   // handshakes rejected on version
  // Capped, for bench percentiles: the endpoint keeps its sessions'
  // first 4,096 samples, in arrival order.
  std::vector<Micros> rtt_samples;
  // Samples discarded at the cap — never silent, so a capped p99 is
  // visibly capped.
  std::uint64_t rtt_samples_dropped = 0;

  // Mergeable distributions (power-of-two buckets, exact count/sum):
  obs::Histogram rtt_us;         // Karn-filtered ack round trips
  obs::Histogram backoff_us;     // RTO scheduled at each retransmit
  obs::Histogram window;         // in-flight frames at first transmit
  obs::Histogram suspicion_us;   // suspect-episode durations
};

// What the sessions of one transport endpoint share. The owner (a
// SessionTable, or a test) keeps it alive as long as its sessions and
// puts the outbox on the wire after every session call that can fill
// it, so the outbox only ever holds one peer's datagrams.
struct SessionEndpoint {
  SessionEndpoint();

  SessionStats stats;                 // every session records here
  std::vector<std::uint8_t> scratch;  // the frame payload being built
  DatagramQueue outbox;               // datagrams to send, in order
};

class ReliableSession {
 public:
  // local_epoch must be nonzero and unique per incarnation of this
  // node (tests pass counters; real transports use HostEpoch()), and
  // seed picks the jitter stream. The session records into endpoint,
  // which must outlive it. Session-layer moments are Note()d into
  // recorder, if any, stamped with peer, so a SIGKILLed process's
  // shard still shows its last retransmit storm; the recorder is the
  // endpoint owner's, shared across its sessions.
  ReliableSession(std::uint64_t local_epoch, std::uint64_t seed,
                  const SessionParams& params, SessionEndpoint& endpoint,
                  obs::FlightRecorder* recorder = nullptr,
                  std::uint32_t peer = 0);

  // A packet delivered exactly once, in order, with the trace context
  // its sender stamped on the wire.
  struct Delivered {
    wire::Packet packet;
    TraceContext tc;
  };

  // ---- inputs -------------------------------------------------------
  // Begins the handshake (idempotent). SendPacket calls it implicitly.
  void Start(Micros now);
  // Queues a packet for exactly-once in-order delivery to the peer.
  // `tc` travels with the packet (survives retransmits unchanged).
  void SendPacket(const wire::Packet& p, Micros now, TraceContext tc = {});
  // Feeds one received datagram through framing + the session machine.
  void OnDatagram(const std::uint8_t* data, std::size_t size, Micros now);
  // Drives retransmit and handshake timers.
  void Tick(Micros now);

  // ---- outputs (drained by the owning transport) --------------------
  // Datagrams to put on the wire, in send order: the endpoint's outbox.
  DatagramQueue& outbox() { return endpoint_->outbox; }
  // Packets delivered exactly once, in order.
  std::vector<Delivered>& delivered() { return delivered_; }
  // True at most once per suspicion episode; an episode ends when the
  // peer shows life (ack progress, handshake, or restart).
  bool TakeSuspect();
  // True once per adopted remote-epoch change after the first.
  bool TakePeerRestart();
  // Earliest time Tick has work to do; nullopt when fully idle.
  std::optional<Micros> NextWake() const;

  bool established() const { return established_; }
  std::uint64_t local_epoch() const { return local_epoch_; }
  std::uint64_t remote_epoch() const { return remote_epoch_; }
  std::size_t in_flight() const { return in_flight_; }
  std::size_t queued() const { return queue_.size() - in_flight_; }
  // The endpoint's stats: this session's, and its siblings'.
  const SessionStats& stats() const { return endpoint_->stats; }

 private:
  // A queued packet's wire::EncodeTo output, in packet_bytes_.
  struct Stored {
    std::size_t offset = 0;
    std::size_t len = 0;
  };

  // A packet in the send queue. seq and the retransmit state are set
  // when it enters the window.
  struct Outgoing {
    std::uint64_t seq = 0;
    Stored bytes;
    TraceContext tc;
    Micros first_sent = 0;
    Micros next_retx = 0;
    std::uint32_t retries = 0;
    bool exhausted = false;
  };

  Micros Backoff(std::uint32_t retries);
  std::uint64_t AckBits() const;
  // Appends a frame whose payload is the endpoint's scratch followed
  // by body to the outbox.
  void EmitFrame(FrameKind kind, const std::uint8_t* body = nullptr,
                 std::size_t body_len = 0);
  // Moves s's bytes down to offset end of packet_bytes_ and advances
  // end past them.
  void Repack(Stored& s, std::size_t& end);
  void SendHello(Micros now);
  void SendHelloAck(Micros now);
  void SendAck();
  void SendReset(Micros now);
  void TransmitData(Outgoing& u, Micros now, bool retransmit);
  void FillWindow(Micros now);
  void ProcessAck(std::uint64_t cum, std::uint64_t bits, Micros now);
  void NoteProgress(Micros now);
  void NoteExhaustion(Outgoing* u, Micros now);
  void NoteRttSample(Micros rtt);
  // Hands d to the app and advances recv_next_ past it.
  void Deliver(Delivered d);
  void AdoptRemote(std::uint64_t epoch, std::uint64_t start_seq, Micros now);
  // Flight-recorder hook; no-op without a recorder.
  void Flight(Micros now, obs::FlightKind kind, std::uint64_t a = 0,
              std::uint64_t b = 0);
  std::uint64_t OldestUnsentOrUnacked() const;

  void OnHello(const FrameView& f, Micros now);
  void OnHelloAck(const FrameView& f, Micros now);
  void OnData(const FrameView& f, Micros now);
  void OnAck(const FrameView& f, Micros now);
  void OnReset(const FrameView& f, Micros now);

  SessionParams params_;
  obs::FlightRecorder* recorder_;
  std::uint32_t peer_;
  Rng rng_;
  std::uint64_t local_epoch_;
  std::uint64_t remote_epoch_ = 0;

  bool started_ = false;
  bool established_ = false;
  std::uint32_t hello_retries_ = 0;
  Micros next_hello_at_ = 0;

  std::uint64_t next_seq_ = 1;              // next data seq to assign
  // In seq order: the first in_flight_ packets are unacked frames in
  // the window, the rest wait for room in it.
  std::vector<Outgoing> queue_;
  std::size_t in_flight_ = 0;
  // The bytes of every queued packet, end to end in queue order.
  std::vector<std::uint8_t> packet_bytes_;

  std::uint64_t recv_next_ = 1;             // next in-order seq expected
  // Out-of-order reassembly, sorted by seq.
  std::vector<std::pair<std::uint64_t, Delivered>> reorder_;

  bool suspect_pending_ = false;
  bool suspect_signalled_ = false;
  Micros suspect_since_ = 0;                // episode start (for duration)
  bool peer_restart_pending_ = false;
  bool ack_dirty_ = false;

  std::vector<Delivered> delivered_;
  SessionEndpoint* endpoint_;
};

}  // namespace celect::net
