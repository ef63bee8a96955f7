// The session half of a Transport endpoint, shared by SimNet's nodes
// and UdpTransport: one lazily built ReliableSession per peer, the
// SessionEndpoint they share (stats, frame scratch, outbox), the
// flight recorder, and the Poll loop over them.
//
// Every call that can fill the shared outbox — Send, Receive, and each
// session Poll ticks — hands it to the caller to put on the wire
// before the table returns or moves on to another session, so each
// flush carries one peer's datagrams, in the order the session made
// them. Flushing a peer's datagrams at Receive rather than at its next
// tick changes only the interleaving across channels, never the order
// within one, and every channel draws its chaos from its own stream.
//
// The table caches each session's NextWake as of its last input and
// marks the sessions that got a datagram since the last Poll. Poll
// ticks, in peer order, only the marked sessions and those whose
// cached wake is due. Skipping any other session is exact: its Tick
// would do nothing (no hello or retransmit is due, and ack_dirty_ is
// never left set outside OnDatagram), and it holds no delivered
// packet or restart or suspect notice: only OnDatagram and Tick make
// those, a session fed a datagram is marked and so ticked, and a
// tick's outputs are drained at once. So the events appended, and the
// datagrams put on each channel and their order, are those of ticking
// every session.
//
// Stats are one SessionStats per endpoint that every session records
// into; the counters and histograms are sums, so they equal the
// per-session stats merged in any order.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "celect/net/datagram.h"
#include "celect/net/reliable.h"
#include "celect/net/transport.h"
#include "celect/obs/shard.h"

namespace celect::net {

class SessionTable {
 public:
  // seed_of(peer) is the jitter seed of the session toward peer.
  SessionTable(PeerId n, std::uint64_t epoch, const SessionParams& params,
               std::function<std::uint64_t(PeerId)> seed_of);

  std::uint64_t epoch() const { return epoch_; }
  const obs::FlightRecorder& recorder() const { return recorder_; }

  // Queues p toward peer and returns the session's outbox, for the
  // caller to put on the wire and clear.
  DatagramQueue& Send(PeerId peer, const wire::Packet& p, Micros now,
                      TraceContext tc);

  // Feeds one datagram from peer to its session (created on first
  // contact), marks the session for the next Poll, and hands what it
  // answered to flush(peer, outbox), as Poll does.
  template <typename Flush>
  void Receive(PeerId peer, const std::uint8_t* data, std::size_t size,
               Micros now, Flush&& flush) {
    Session(peer).OnDatagram(data, size, now);
    slots_[peer].marked = true;
    flush(peer, endpoint_.outbox);
  }

  // Ticks, in peer order, every session marked by Receive or whose
  // cached wake is <= now; appends its delivered packets and restart
  // and suspect notices to out, then hands its outbox to
  // flush(peer, outbox), which puts it on the wire and clears it.
  template <typename Flush>
  void Poll(Micros now, std::vector<TransportEvent>& out, Flush&& flush) {
    for (PeerId peer = 0; peer < slots_.size(); ++peer) {
      Slot& slot = slots_[peer];
      if (!slot.marked && slot.wake > now) continue;
      flush(peer, Tick(peer, now, out));
    }
  }

  // Earliest cached session wake; nullopt when every session is idle.
  std::optional<Micros> NextWake() const;

  // link's counters with the sessions' stats.
  TransportStats Stats(const TransportStats& link) const;

 private:
  static constexpr Micros kIdle = std::numeric_limits<Micros>::max();

  struct Slot {
    std::unique_ptr<ReliableSession> session;
    Micros wake = kIdle;  // session->NextWake() as of its last input
    bool marked = false;  // got a datagram since the last Poll
  };

  ReliableSession& Session(PeerId peer);
  void Rewake(Slot& slot) {
    slot.wake = slot.session->NextWake().value_or(kIdle);
  }
  DatagramQueue& Tick(PeerId peer, Micros now,
                      std::vector<TransportEvent>& out);

  std::uint64_t epoch_;
  SessionParams params_;
  std::function<std::uint64_t(PeerId)> seed_of_;
  SessionEndpoint endpoint_;
  obs::FlightRecorder recorder_;
  std::vector<Slot> slots_;
};

}  // namespace celect::net
