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
// In-flight heap: every datagram on the wire, mesh-wide, is one entry
// of a single binary min-heap keyed on (arrival, channel, admission
// order), where a channel's FakeLink decides each copy's fate and
// arrival time as the sender's endpoint flushes it. The FakeLinks share
// the config's chaos params and are seeded at the first flush, so a
// mesh that has sent nothing holds only its endpoints. NextArrival() is
// the heap top. DeliverDue() pops every entry due by now and sorts
// just those by (channel, arrival, order): channel index order is
// (from, to) order, so this is exactly the delivery order of one
// (arrival, order)-ordered queue per channel drained channel by
// channel, however many arrival instants the call covers. The keys
// are unique, so the sort needs no stability and no buffer. The
// queued arrivals are also the choice points a schedule explorer
// would pick among.
//
// Buffers: every datagram in flight or waiting in an inbox lives in
// one DatagramPool slot owned by the SimNet. Admission copies the
// sender's outbox bytes into a slot, its handle moves to the
// receiver's inbox at DeliverDue, and Poll releases it once the
// session has read it; a killed node's inbox and a dead host's
// arrivals are released unread. Each endpoint polls through a
// SessionTable (session_table.h).
//
// Kill/Restart model a process crash: a killed node loses all session
// state and its in-flight traffic is discarded on arrival; a restarted
// node comes back with a fresh session epoch, which is exactly what
// the reliability layer's handshake has to detect and resync.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "celect/net/clock.h"
#include "celect/net/datagram.h"
#include "celect/net/fake_link.h"
#include "celect/net/transport.h"

namespace celect::net {

struct SimNetConfig {
  std::uint32_t n = 2;
  FakeLinkParams link;      // per-channel chaos (seed is re-derived)
  SessionParams session;    // retransmit timing of every session
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

  // Earliest pending link delivery across the mesh (the in-flight
  // heap top).
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

  // One datagram copy on the wire: due at `at` on channel `channel`,
  // the `order`th copy admitted anywhere in the mesh.
  struct InFlight {
    Micros at;
    std::uint64_t order;
    std::uint32_t channel;
    DatagramPool::Handle dgram;
  };
  // Heap order: the earliest (at, channel, order) on top.
  struct Later {
    bool operator()(const InFlight& a, const InFlight& b) const;
  };
  // Delivery order: channel by channel, each in (at, order).
  struct ChannelFirst {
    bool operator()(const InFlight& a, const InFlight& b) const;
  };

  // Channels are indexed densely in (from, to) order, skipping from ==
  // to, so channel index order is (from, to) order.
  std::size_t ChannelIndex(PeerId from, PeerId to) const {
    return std::size_t{from} * (config_.n - 1) + to - (to > from ? 1 : 0);
  }
  // Puts one datagram flushed by `from` toward `to` on the wire: its
  // channel's chaos decides which copies arrive, and when.
  void Admit(PeerId from, PeerId to, std::span<const std::uint8_t> dgram);
  // Seeds every channel's chaos stream. Called at the first Admit, so
  // building a mesh costs only its endpoints until traffic flows.
  void BuildChannels();
  std::uint64_t NextEpoch() { return ++epoch_counter_; }

  SimNetConfig config_;
  VirtualClock clock_;
  // Declared before the nodes and the heap that hold its handles.
  DatagramPool pool_;
  // [ChannelIndex(from, to)]; empty until the first datagram.
  std::vector<FakeLink> channels_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> alive_;
  std::uint64_t epoch_counter_ = 0;
  // Min-heap on (at, channel, order); DeliverDue parks the due entries
  // past the heap's end while it hands them out.
  std::vector<InFlight> in_flight_;
  std::uint64_t admitted_ = 0;  // copies put on the wire so far
  std::vector<PeerId> receivers_;  // DeliverDue's reused result
};

}  // namespace celect::net
