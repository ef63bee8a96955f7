// In-memory transport: a complete network of FakeLinks on a VirtualClock.
//
// SimNet owns n Transport endpoints and the n*(n-1) directed chaos
// channels between them. A driver (net::RunSimElection) advances the
// clock to the next interesting instant, calls DeliverDue() to move
// datagrams whose delay expired into node inboxes, and Poll()s the
// endpoints that have work. Everything — link delays, loss, session
// jitter, epochs — derives from the config seed, so a run is
// bit-reproducible.
//
// Arrival index: SimNet keeps one ordered set of (head arrival time,
// channel index), with one entry per channel that has traffic in
// flight. It is updated whenever a channel's head changes — after an
// endpoint hands datagrams to a channel, and after DeliverDue drains
// one — so NextArrival() is the set's first entry and DeliverDue()
// touches only the channels that are due, never the whole mesh. The
// queued arrivals are also the choice points a schedule explorer
// would pick among.
//
// Kill/Restart model a process crash: a killed node loses all session
// state and its in-flight traffic is discarded on arrival; a restarted
// node comes back with a fresh session epoch, which is exactly what
// the reliability layer's handshake has to detect and resync.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "celect/net/clock.h"
#include "celect/net/fake_link.h"
#include "celect/net/transport.h"

namespace celect::net {

struct SimNetConfig {
  std::uint32_t n = 2;
  FakeLinkParams link;      // per-channel chaos (seed is re-derived)
  SessionParams session;    // per-session knobs (seed is re-derived)
  std::uint64_t seed = 1;
};

class SimNet {
 public:
  explicit SimNet(const SimNetConfig& config);
  ~SimNet();

  std::uint32_t n() const { return config_.n; }
  Transport& at(PeerId i);
  VirtualClock& virtual_clock() { return clock_; }

  // Crash node i: session state and inbox are lost; traffic already in
  // flight toward it is discarded when it arrives (unless i restarts
  // first — late datagrams then hit the new incarnation, which is the
  // stale-epoch case the handshake must reject).
  void Kill(PeerId i);
  // Revive node i with a fresh, unique session epoch.
  void Restart(PeerId i);

  // Earliest pending link delivery across the mesh (the arrival
  // index head).
  std::optional<Micros> NextArrival() const;
  // Earliest pending link delivery or session timer across the mesh.
  std::optional<Micros> NextEvent() const;
  // Moves every datagram due at clock_.Now() into node inboxes, channel
  // by channel in (from, to) order. Returns the live nodes that
  // received at least one datagram, ascending; the reference stays
  // valid until the next call.
  const std::vector<PeerId>& DeliverDue();

 private:
  class Node;

  std::size_t ChannelIndex(PeerId from, PeerId to) const {
    return std::size_t{from} * config_.n + to;
  }
  // Moves channel c's index entry from old_head to its current head.
  void Reindex(std::size_t c, std::optional<Micros> old_head);
  std::uint64_t NextEpoch() { return ++epoch_counter_; }

  SimNetConfig config_;
  VirtualClock clock_;
  std::vector<std::unique_ptr<FakeLink>> channels_;  // [from * n + to]
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> alive_;
  std::uint64_t epoch_counter_ = 0;
  // (head arrival time, channel index), one entry per non-empty channel.
  std::set<std::pair<Micros, std::size_t>> arrivals_;
  // DeliverDue's reused buffers.
  std::vector<std::size_t> due_channels_;
  std::vector<std::vector<std::uint8_t>> due_dgrams_;
  std::vector<PeerId> receivers_;
};

}  // namespace celect::net
