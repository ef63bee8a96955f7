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
// Arrival index: SimNet keeps a binary min-heap of (head arrival time,
// channel index), with one entry per channel that has traffic in
// flight and a slot map from channel to heap position, so a channel's
// entry is moved in place rather than removed and re-added. It is
// updated whenever a channel's head changes — after an endpoint hands
// datagrams to a channel, and after DeliverDue drains one — so
// NextArrival() is the heap top and DeliverDue() touches only the
// channels that are due, never the whole mesh. The queued arrivals are
// also the choice points a schedule explorer would pick among.
//
// Buffers: every datagram in flight or waiting in an inbox lives in
// one DatagramPool slot owned by the SimNet. A channel copies the
// sender's outbox bytes into a slot at Send, its handle moves to the
// receiver's inbox at DeliverDue, and Poll releases it once the
// session has read it; a killed node's inbox and a dead host's
// arrivals are released unread. Channels are stored by value, and
// each endpoint polls through a SessionTable (session_table.h).
//
// Kill/Restart model a process crash: a killed node loses all session
// state and its in-flight traffic is discarded on arrival; a restarted
// node comes back with a fresh session epoch, which is exactly what
// the reliability layer's handshake has to detect and resync.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "celect/net/clock.h"
#include "celect/net/datagram.h"
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
  // index top).
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

  // The arrival index: channels with traffic in flight, as a binary
  // min-heap on head arrival time with each channel's heap position.
  class ArrivalIndex {
   public:
    explicit ArrivalIndex(std::size_t channels);
    bool empty() const { return heap_.empty(); }
    Micros next() const { return heap_.front().at; }
    std::size_t top() const { return heap_.front().channel; }
    // Sets channel c's entry to head, removing it when head is nullopt.
    void Set(std::size_t c, std::optional<Micros> head);
    void Pop() { Set(top(), std::nullopt); }

   private:
    struct Entry {
      Micros at;
      std::uint32_t channel;
    };
    static constexpr std::uint32_t kAbsent = 0xFFFFFFFF;
    // Moves e up or down from heap slot i to where it belongs.
    void Place(std::size_t i, Entry e);

    std::vector<Entry> heap_;
    std::vector<std::uint32_t> slot_;  // channel -> heap slot or kAbsent
  };

  // Channels are indexed densely in (from, to) order, skipping from ==
  // to, so channel index order is (from, to) order.
  std::size_t ChannelIndex(PeerId from, PeerId to) const {
    return std::size_t{from} * (config_.n - 1) + to - (to > from ? 1 : 0);
  }
  // Moves channel c's index entry from old_head to its current head.
  void Reindex(std::size_t c, std::optional<Micros> old_head);
  std::uint64_t NextEpoch() { return ++epoch_counter_; }

  SimNetConfig config_;
  VirtualClock clock_;
  // Declared before the channels and nodes that hold its handles.
  DatagramPool pool_;
  std::vector<FakeLink> channels_;  // [ChannelIndex(from, to)]
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> alive_;
  std::uint64_t epoch_counter_ = 0;
  ArrivalIndex arrivals_;
  // DeliverDue's reused buffers.
  std::vector<std::size_t> due_channels_;
  std::vector<DatagramPool::Handle> due_dgrams_;
  std::vector<PeerId> receivers_;
};

}  // namespace celect::net
