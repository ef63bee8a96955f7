// Hosts one sim::Process on top of a Transport.
//
// This is the seam that lets the protocol engines run unmodified over
// real sockets: PeerNode attaches one sim::NodeCore (the Context the
// process sees) to a Transport. Ports map to peers through a
// sim::SodPortMapper ((self + port) mod n, so port numbers stay 1..n-1
// and never reveal identities), sim::Time maps to transport
// microseconds through a configurable unit, timers live in a local
// deadline list, and transport suspect events surface as
// Process::OnPeerSuspected.
//
// On top of the hosted election it runs a tiny gossip layer: once any
// node believes in a leader (by declaring, or by hearing an announce)
// it periodically re-announces the belief, adopting the highest leader
// id on conflict. The election provides the belief; the gossip makes
// it reach every current incarnation — including processes that were
// SIGKILLed mid-election and restarted knowing nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "celect/net/transport.h"
#include "celect/obs/shard.h"
#include "celect/sim/node_core.h"
#include "celect/sim/port_mapper.h"
#include "celect/sim/process.h"
#include "celect/wire/checksum.h"

namespace celect::net {

// Leader-announce gossip packet: fields = {leader id}. The type sits
// far above both the protocol range (< 100) and the lease wrap base,
// so it can never collide with a wrapped engine packet.
inline constexpr std::uint16_t kAnnouncePacketType = 32001;

struct PeerNodeConfig {
  sim::Id id = 0;
  // One sim::Time unit in transport microseconds. The EFG recovery
  // period is 8 units; 20ms/unit puts protocol-level retries at 160ms,
  // comfortably above the reliability layer's RTO.
  Micros unit_us = 20'000;
  Micros announce_interval_us = 100'000;
  // True for a process revived after a crash: it enters via OnRejoin
  // (passive, quarantine-aware) instead of OnWakeup.
  bool rejoin = false;
  // Record causal trace records (sends, deliveries, timers, phases,
  // leader changes) for MakeShard. Lamport clocks and wire mids are
  // minted regardless — the trace context always travels — this only
  // controls record retention, up to kPeerTraceCap records per
  // incarnation (truncation is counted, as in sim::Trace).
  bool trace = false;
};

inline constexpr std::size_t kPeerTraceCap = 200'000;

class PeerNode : private sim::NodeHost {
 public:
  PeerNode(const PeerNodeConfig& config, Transport& transport,
           const sim::ProcessFactory& factory);
  ~PeerNode();

  // Delivers the initial OnWakeup (or OnRejoin) to the process.
  void Start();

  // One scheduling round: polls the transport, dispatches packets,
  // suspicions, due timers, and the announce cadence.
  void Pump();

  // Earliest instant Pump has something to do; nullopt when idle.
  std::optional<Micros> NextWake() const;

  // The node's current leader belief (own declaration or adopted
  // announce); nullopt until it believes.
  std::optional<sim::Id> leader() const { return leader_; }
  bool declared_self() const { return declared_self_; }
  sim::Id id() const { return config_.id; }

  // Rolling FNV digest over every dispatched event — the
  // bit-reproducibility witness for deterministic transports.
  std::uint64_t EventDigest() const { return digest_.Digest64(); }
  std::uint64_t events_dispatched() const { return events_dispatched_; }

  // This incarnation's observability dump: trace records, the
  // transport's flight-recorder ring (rebased to trace ticks), and a
  // metrics snapshot over `stats` (the transport's Stats(), which the
  // caller takes once and may reuse). complete=false marks a mid-run
  // flush (what a SIGKILLed victim leaves behind); complete=true an
  // orderly exit.
  obs::TraceShard MakeShard(bool complete, const TransportStats& stats) const;
  // Adds this incarnation's counters + histograms into `into`: the
  // protocol engine's (Context counters) and the reliability layer's
  // (`stats`, the transport's Stats()). The one place the session
  // histograms get their names: rtt_us, backoff_us, window_occupancy,
  // suspicion_us.
  void FoldMetrics(obs::MetricsRegistry& into,
                   const TransportStats& stats) const;
  // FoldMetrics into a fresh registry.
  obs::MetricsRegistry SnapshotMetrics(const TransportStats& stats) const;

 private:
  // sim::NodeHost: the Transport half of the node.
  sim::Time Now() override;
  void Transmit(sim::NodeId from, sim::NodeId to, wire::Packet packet,
                std::uint64_t clock, std::uint64_t mid) override;
  sim::TimerId ArmTimer(sim::NodeId node, sim::Time delay) override;
  bool DisarmTimer(sim::TimerId timer) override;
  void DeclareLeader(sim::NodeId node) override;

  std::int64_t TicksOf(Micros at) const;
  Micros DelayToMicros(sim::Time delay) const;
  void Dispatch(const TransportEvent& ev);
  void FireDueTimers();
  void Announce();
  void Believe(sim::Id leader);

  PeerNodeConfig config_;
  Transport& transport_;
  sim::SodPortMapper mapper_;
  // Trace, counters and the mid mint. The mid base is derived from the
  // transport epoch, so mids are globally unique across nodes AND
  // incarnations — the property the cross-process flow pairing keys on.
  sim::HostStores stores_;
  sim::NodeCore core_;
  std::unique_ptr<sim::Process> process_;

  // Armed timers sorted latest first, so the next to fire is at the
  // back; deadline ties fire in arming order (TimerIds are monotone),
  // so dispatch is deterministic.
  std::vector<std::pair<Micros, sim::TimerId>> timers_;
  sim::TimerId next_timer_ = 1;

  std::optional<sim::Id> leader_;
  bool declared_self_ = false;
  Micros next_announce_ = 0;
  bool started_ = false;

  wire::Fnv1aStream digest_;
  std::uint64_t events_dispatched_ = 0;
  std::uint64_t suspicions_seen_ = 0;

  std::vector<TransportEvent> events_;  // reused poll buffer
};

}  // namespace celect::net
