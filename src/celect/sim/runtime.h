// The discrete-event runtime for asynchronous complete networks.
//
// Drives the event queue to quiescence: wakeups fire OnWakeup on base
// nodes; every Context::Send admits the packet through the LinkTable
// (FIFO + delay-model arrival) and schedules a DeliveryEvent; deliveries
// fire OnMessage; timers armed via Context::SetTimer fire OnTimer. The
// run ends when the queue drains (protocols here are finite) or the
// event budget is exceeded (treated as a protocol bug).
//
// Fault injection: NetworkConfig::faults schedules mid-run crashes
// (CrashEvents plus send/receive-triggered crashes checked inline) and
// per-message link loss/duplication/reordering. A crashed node stops
// dispatching — queued deliveries, wakeups, and timers addressed to it
// are swallowed and accounted as drops.
//
// Churn: a FaultPlan's rejoins schedule RejoinEvents that revive crashed
// nodes. Revival rebuilds the node from the process factory (fresh
// volatile state — there is no stable storage in the model) and calls
// Process::OnRejoin on the new instance; the node then participates
// normally. Timers and phase spans from the node's previous life die
// with the crash and never leak into the new incarnation.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "celect/obs/phase.h"
#include "celect/obs/telemetry.h"
#include "celect/sim/event_queue.h"
#include "celect/sim/fault.h"
#include "celect/sim/hooks.h"
#include "celect/sim/link.h"
#include "celect/sim/metrics.h"
#include "celect/sim/network.h"
#include "celect/sim/node_core.h"
#include "celect/sim/process.h"
#include "celect/sim/trace.h"

namespace celect::sim {

struct RuntimeOptions {
  // Hard event budget; exceeding it aborts the run (Run() CHECK-fails).
  std::uint64_t max_events = 500'000'000;
  bool enable_trace = false;
  // Trace record cap; past it records are dropped, Trace::truncated()
  // trips, and the run surfaces counters["sim.trace_truncated"].
  std::size_t trace_cap = 10'000'000;
  // Streaming histograms + time-series samplers (obs/telemetry.h):
  // delivery latency, per-node queue depth, capture-span width, global
  // in-flight series. Off by default — zero work on the hot path.
  bool enable_telemetry = false;
  // Invariant observer, called after every dispatched event and at
  // quiescence. Not owned; may be null.
  RunObserver* observer = nullptr;
  // Controlled scheduling: when set, the runtime ignores time order and
  // dispatches whichever enabled event the controller picks (per-link
  // FIFO still holds; inert events — stale timers, traffic to dead
  // nodes — are drained eagerly and are not choice points). Not owned.
  ScheduleController* controller = nullptr;
};

struct RunResult {
  std::optional<Id> leader_id;
  std::optional<NodeId> leader_node;
  std::uint32_t leader_declarations = 0;
  Time leader_time;   // first declaration
  Time quiesce_time;  // when the queue drained
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t max_link_load = 0;
  std::uint64_t max_link_inflight = 0;
  // Fault-injection accounting (all zero on fault-free runs).
  std::uint64_t faults_injected = 0;      // mid-run crashes that fired
  std::uint64_t messages_lost = 0;        // injected link loss
  std::uint64_t messages_duplicated = 0;  // injected duplicates
  std::uint64_t messages_reordered = 0;   // FIFO-overtaking deliveries
  std::uint64_t timers_set = 0;
  std::uint64_t timers_fired = 0;
  // Invariant-registry tally (zero unless an observer recorded any).
  std::uint64_t invariant_violations = 0;
  // Host wall-clock spent inside Run() and the resulting event
  // throughput. Non-deterministic (machine/load dependent): excluded
  // from FingerprintResult and from byte-identity comparisons; reported
  // so bench sweeps can track simulator performance.
  std::uint64_t wall_ns = 0;
  double events_per_sec = 0.0;
  // True when a ScheduleController cut the run short (the queue did not
  // drain; quiescence checks were skipped).
  bool aborted_by_controller = false;
  std::map<std::uint16_t, std::uint64_t> messages_by_type;
  std::map<std::string, std::int64_t> counters;
  // Per-phase message/time table keyed by obs::PhaseKey ("capture1",
  // "doubling.3", ...). Populated from Context::BeginPhase/EndPhase
  // spans; empty for protocols that mark no phases. Spans still open at
  // quiescence are closed there (their duration runs to quiesce_time).
  std::map<std::string, obs::PhaseAgg> phases;
  // Telemetry bundle; Empty() unless RuntimeOptions::enable_telemetry.
  obs::Telemetry telemetry;
};

class Runtime : private NodeHost {
 public:
  Runtime(NetworkConfig config, const ProcessFactory& factory,
          RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Runs to quiescence and returns the aggregated result. Call once.
  RunResult Run();

  // Introspection (valid after Run).
  const Metrics& metrics() const { return stores_.metrics; }
  const Trace& trace() const { return stores_.trace; }
  const NetworkConfig& config() const { return config_; }
  // failed[address] after the run: initial failures plus every mid-run
  // crash that fired, minus nodes revived by a later rejoin.
  const std::vector<bool>& failed() const { return failed_; }

  // The process at `address` — tests use this to assert protocol state.
  Process& process(NodeId address);

  // Queued deliveries whose packet did not fit a PackedPacket and went
  // to the spill store, over the whole run (duplicates included), and
  // those still queued. Kept out of RunResult::counters, which
  // FingerprintResult hashes.
  std::uint64_t spilled_deliveries() const { return spilled_deliveries_; }
  std::size_t pending_spills() const {
    return spill_.size() - spill_free_.size();
  }

 private:
  // NodeHost: the event-queue and LinkTable half of every node.
  Time Now() override { return now_; }
  void Transmit(NodeId from, NodeId to, wire::Packet packet,
                std::uint64_t clock, std::uint64_t mid) override;
  TimerId ArmTimer(NodeId node, Time delay) override;
  bool DisarmTimer(TimerId timer) override;
  void DeclareLeader(NodeId node) override;

  // Parks a packet too wide for a PackedPacket in the spill store and
  // returns the queued form that names its entry.
  PackedPacket Spill(wire::Packet packet);
  // The packet a dispatched delivery carries; frees its spill entry.
  wire::Packet Unpack(const PackedPacket& packed) {
    return packed.spilled ? Unspill(packed.spill_index())
                          : packed.UnpackInline();
  }
  // Takes a packet out of the spill store and frees its entry.
  wire::Packet Unspill(std::uint32_t index);
  void Dispatch(const Event& e);
  // The controlled-scheduling loop (options_.controller set).
  void RunControlled(std::uint64_t& events);
  // Enabled = pending, minus inert events, minus FIFO-blocked deliveries.
  // Inert events (stale timers, events targeting dead nodes) are
  // dispatched eagerly by DrainInert so they never become choice points.
  bool EventIsInert(const Event& e) const;
  void DrainInert(std::uint64_t& events);
  RunInspect MakeInspect();
  void NotifyObserver(const Event& e);
  void MarkCrashed(NodeId node);
  void MarkRejoined(NodeId node);

  NetworkConfig config_;
  RuntimeOptions options_;
  // Kept for the run so RejoinEvents can rebuild revived nodes.
  ProcessFactory factory_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Id> ids_;
  // Mids are 1-based and global; duplicates share the original's uid so
  // trace flows pair exactly even under loss.
  HostStores stores_;
  // A node's core, and so its Lamport clock, outlives crash and rejoin.
  std::vector<NodeCore> cores_;
  EventQueue queue_;
  LinkTable links_;
  Time now_ = Time::Zero();
  bool ran_ = false;
  bool aborted_by_controller_ = false;
  // DeliveryEvents currently in the queue — the in-flight leg of the
  // message-conservation ledger (sent + duplicated = delivered + dropped
  // + in flight).
  std::uint64_t deliveries_inflight_ = 0;

  // Failure state: seeded from config_.failed, extended by mid-run
  // crashes, cleared again by rejoins.
  std::vector<bool> failed_;
  std::unique_ptr<FaultInjector> injector_;
  // RejoinEvents still in the queue, per node. While one is pending,
  // traffic to the (dead) node is a real schedule choice — "dropped
  // before revival" vs "delivered after" — so it must not be drained as
  // inert under controlled scheduling.
  std::vector<std::uint32_t> pending_rejoins_;

  // Timers, in a dense table indexed by id. Ids are handed out 1, 2,
  // 3, ..., so timer id t lives at timers_[t - timer_base_]; a fired or
  // cancelled timer is marked dead there, so stale TimerEvents are
  // discarded at dispatch. When the table is full and its dead prefix
  // is at least half of it, the prefix is dropped and timer_base_
  // advances instead of the table growing, so the table spans little
  // more than the ids that can still be live. The queue ticket lets
  // DisarmTimer tombstone the queued event the moment it is cancelled,
  // so Size()/PeekTime() and queue-depth telemetry never count it. A
  // crash cancels exactly the victim's live timers (node_timers_), in
  // id order, which keeps a pre-crash timer from ever firing into the
  // fresh process a rejoin installs, at a cost independent of how many
  // timers the run has armed.
  struct TimerRec {
    // The queued TimerEvent's EventTicket, split so the record packs
    // into 16 bytes.
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    NodeId node = kDeadTimer;  // owner, or kDeadTimer once retired
  };
  static constexpr NodeId kDeadTimer = 0xFFFFFFFFu;
  // The ids a node armed, ascending. Retired ids are dropped lazily,
  // once they outnumber the live ones, so both arming and retiring
  // stay amortised O(1).
  struct NodeTimers {
    std::vector<TimerId> ids;
    std::size_t live = 0;
  };
  // The live timer `timer`, or null if it fired, was cancelled, or was
  // never issued.
  TimerRec* LiveTimer(TimerId timer);
  const TimerRec* LiveTimer(TimerId timer) const;
  // Marks a live timer dead (its node's ids drop it lazily).
  void RetireTimer(TimerRec& rec);
  // Drops the table's dead prefix if it is at least half the table.
  void CompactTimers();

  std::vector<TimerRec> timers_;
  TimerId timer_base_ = kInvalidTimer + 1;
  TimerId next_timer_ = kInvalidTimer;
  std::vector<NodeTimers> node_timers_;

  // Pending (queued, undelivered) deliveries per destination — the
  // queue-depth histogram's source. Maintained only with telemetry on.
  std::vector<std::uint32_t> pending_deliveries_;

  // Packets of queued deliveries too wide for a PackedPacket, indexed by
  // its f[0]. Each entry belongs to one queued delivery and is freed
  // when that delivery is dispatched, delivered or dropped; entries
  // still queued when a controller stops a run early die with the
  // runtime.
  std::vector<wire::Packet> spill_;
  std::vector<std::uint32_t> spill_free_;
  std::uint64_t spilled_deliveries_ = 0;
};

}  // namespace celect::sim
