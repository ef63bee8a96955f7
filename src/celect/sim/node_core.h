// One node's half of a host: the sim::Context every protocol runs on.
//
// NodeCore implements the paper's node model (§2: identity, N, local
// ports) once for every driver. It owns the node's Lamport clock and
// open phase spans, resolves ports through the PortMapper,
// mints message uids, stamps each TraceRecord with clock and phase, and
// records protocol counters and timer tallies. How packets and time
// actually move is the NodeHost's business: the simulator's Runtime and
// net::PeerNode each implement that port and attach their cores to it.
//
// Clock rule: sends, wakeups, timer fires and deliveries tick the
// clock, a delivery joining the sender's carried clock with max + 1.
// Everything else (rejoin, crash, timer set/cancel, phase marks,
// leader) snapshots the clock without ticking it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "celect/obs/phase.h"
#include "celect/obs/telemetry.h"
#include "celect/sim/metrics.h"
#include "celect/sim/port_mapper.h"
#include "celect/sim/process.h"
#include "celect/sim/trace.h"

namespace celect::sim {

// The transport-specific half of a node host.
class NodeHost {
 public:
  virtual Time Now() = 0;
  // Moves `packet` from `from` toward `to`. `clock` and `mid` are the
  // send's Lamport clock and message uid; they ride with the packet to
  // the delivery.
  virtual void Transmit(NodeId from, NodeId to, wire::Packet packet,
                        std::uint64_t clock, std::uint64_t mid) = 0;
  // Arms a timer for `node` firing `delay` from now; the host later
  // calls NodeCore::FireTimer with the returned id.
  virtual TimerId ArmTimer(NodeId node, Time delay) = 0;
  // Disarms a live timer; false when it already fired or was
  // cancelled (or never existed).
  virtual bool DisarmTimer(TimerId timer) = 0;
  virtual void DeclareLeader(NodeId node) = 0;

 protected:
  ~NodeHost() = default;
};

// The run-wide stores a host shares among its cores.
struct HostStores {
  HostStores(PortMapper* m, bool trace_on, std::size_t trace_cap)
      : mapper(m), trace(trace_on, trace_cap) {}

  PortMapper* mapper;
  Trace trace;
  Metrics metrics;
  std::map<std::pair<std::uint16_t, std::int64_t>, obs::PhaseAgg> phases;
  // Null unless the host collects telemetry (capture-span widths).
  std::unique_ptr<obs::Telemetry> telemetry;
  // Mids are mid_base + 1, mid_base + 2, ... across all cores sharing
  // these stores, in send order.
  std::uint64_t mid_base = 0;
  std::uint64_t mids_minted = 0;
};

class NodeCore final : public Context {
 public:
  NodeCore(NodeHost& host, HostStores& stores, NodeId self, Id id);

  // Entry points the host calls.
  void Wakeup(Process& p);
  // A protocol delivery: joins the clock, records kDeliver and runs
  // OnMessage.
  void Deliver(Process& p, NodeId from, Port port, const wire::Packet& packet,
               std::uint64_t send_clock, std::uint64_t mid);
  // A host-level arrival (no OnMessage): joins the clock and records
  // kDeliver.
  void Receive(NodeId from, Port port, std::uint16_t type,
               std::uint64_t send_clock, std::uint64_t mid);
  void FireTimer(Process& p, TimerId timer);
  // Records kCrash, stops further sends and closes every open span.
  void Crash();
  // Revives the node (unclocked) and runs OnRejoin on `p`.
  void Rejoin(Process& p);
  // Host traffic toward `to` (announce gossip): ticks, mints, records
  // kSend and transmits.
  void SendHost(NodeId to, wire::Packet packet);
  void CloseAllPhases();
  // Records a trace event stamped with this node's clock and innermost
  // phase. No-op when tracing is off.
  void Record(TraceRecord::Kind kind, NodeId peer, Port port,
              std::uint16_t type, std::uint64_t mid);

  NodeId address() const override { return self_; }
  Id id() const override { return id_; }
  std::uint32_t n() const override { return n_; }
  Time now() const override { return host_.Now(); }
  bool has_sense_of_direction() const override {
    return stores_.mapper->HasSenseOfDirection();
  }
  void Send(Port port, wire::Packet p) override;
  void SendAll(wire::Packet p) override;
  TimerId SetTimer(Time delay) override;
  void CancelTimer(TimerId timer) override;
  void DeclareLeader() override { host_.DeclareLeader(self_); }
  void RecordLease(LeaseEvent event) override {
    stores_.metrics.RecordLeaseEvent(event);
  }
  void AddCounter(std::string_view name, std::int64_t delta) override {
    stores_.metrics.registry().AddCounter(name, delta);
  }
  void MaxCounter(std::string_view name, std::int64_t value) override {
    stores_.metrics.registry().MaxCounter(name, value);
  }
  CounterRef ResolveCounter(std::string_view name) override {
    return CounterRef{name, stores_.metrics.registry().InternCounter(name)};
  }
  void AddCounter(const CounterRef& c, std::int64_t delta) override;
  void MaxCounter(const CounterRef& c, std::int64_t value) override;
  using Context::BeginPhase;
  void BeginPhase(obs::PhaseId phase, std::int64_t level) override;
  void EndPhase(obs::PhaseId phase) override;

 private:
  // Ticks, mints a mid, records kSend and hands the packet to the host.
  void Emit(NodeId to, Port port, wire::Packet&& packet);
  void CloseTopPhase();

  struct PhaseFrame {
    obs::PhaseId id;
    std::int64_t level;
    Time since;
    std::uint64_t messages;
    obs::PhaseAgg* agg;  // into stores_.phases (std::map nodes are stable)
  };

  NodeHost& host_;
  HostStores& stores_;
  NodeId self_;
  std::uint32_t n_;
  Id id_;
  std::uint64_t clock_ = 0;
  bool down_ = false;  // crashed: later sends in the same handler vanish
  std::vector<PhaseFrame> phases_;  // innermost last
};

}  // namespace celect::sim
