#include "celect/sim/runtime.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "celect/util/check.h"
#include "celect/wire/packet_codec.h"

namespace celect::sim {

namespace {

// Monotonic host-clock read backing the wall_ns / events_per_sec
// throughput accounting. Wall time is excluded from FingerprintResult
// and never reaches traces, so this is the one sanctioned clock read
// in the deterministic core.
std::uint64_t WallClockNowNs() {
  // celect-lint: allow(no-wall-clock) throughput probe, not fingerprinted
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

}  // namespace

NodeId EventTarget(const EventBody& body) {
  return std::visit(
      [](const auto& b) -> NodeId {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, DeliveryEvent>) {
          return b.to;
        } else {
          return b.node;
        }
      },
      body);
}

Runtime::Runtime(NetworkConfig config, const ProcessFactory& factory,
                 RuntimeOptions options)
    : config_(std::move(config)),
      options_(options),
      factory_(factory),
      stores_(config_.mapper.get(), options.enable_trace,
              options.trace_cap),
      links_(config_.n) {
  CELECT_CHECK(config_.n >= 2);
  CELECT_CHECK(config_.mapper && config_.delays);
  ids_ = config_.identities.empty() ? IdentitiesAscending(config_.n)
                                    : config_.identities;
  CELECT_CHECK(ids_.size() == config_.n);
  processes_.reserve(config_.n);
  cores_.reserve(config_.n);
  for (NodeId i = 0; i < config_.n; ++i) {
    processes_.push_back(factory(ProcessInit{i, ids_[i], config_.n}));
    CELECT_CHECK(processes_.back() != nullptr);
    cores_.emplace_back(static_cast<NodeHost&>(*this), stores_, i, ids_[i]);
  }
  failed_ = config_.failed.empty() ? std::vector<bool>(config_.n, false)
                                   : config_.failed;
  CELECT_CHECK(failed_.size() == config_.n);
  if (options_.enable_telemetry) {
    stores_.telemetry = std::make_unique<obs::Telemetry>();
    pending_deliveries_.assign(config_.n, 0);
  }
  pending_rejoins_.assign(config_.n, 0);
  node_timers_.resize(config_.n);
  if (!config_.faults.Empty()) {
    ValidateFaultPlan(config_.faults, config_.n);
    injector_ = std::make_unique<FaultInjector>(config_.faults, config_.n);
    for (const auto& [node, at] : injector_->TimedCrashes()) {
      queue_.Push(at, CrashEvent{node});
    }
    for (const auto& [node, at] : injector_->TimedRejoins()) {
      queue_.Push(at, RejoinEvent{node});
      ++pending_rejoins_[node];
    }
    if (config_.faults.link.Any()) {
      // Stream-split off the plan seed so link faults never perturb the
      // delay/identity RNG streams.
      links_.EnableFaults(config_.faults.link, config_.faults.seed);
    }
  }
  for (const auto& [node, at] : config_.wakeup.wakeups) {
    queue_.Push(at, WakeupEvent{node});
  }
}

Runtime::~Runtime() = default;

Process& Runtime::process(NodeId address) {
  CELECT_CHECK(address < processes_.size());
  return *processes_[address];
}

Runtime::TimerRec* Runtime::LiveTimer(TimerId timer) {
  return const_cast<TimerRec*>(std::as_const(*this).LiveTimer(timer));
}

const Runtime::TimerRec* Runtime::LiveTimer(TimerId timer) const {
  if (timer < timer_base_ || timer - timer_base_ >= timers_.size()) {
    return nullptr;
  }
  const TimerRec& rec = timers_[timer - timer_base_];
  return rec.node != kDeadTimer ? &rec : nullptr;
}

TimerId Runtime::ArmTimer(NodeId node, Time delay) {
  CELECT_CHECK(delay >= Time::Zero()) << "timer delay must be non-negative";
  const TimerId id = ++next_timer_;
  const EventTicket ticket =
      queue_.PushTicketed(now_ + delay, TimerEvent{node, id});
  if (timers_.size() == timers_.capacity()) CompactTimers();
  timers_.push_back(TimerRec{ticket.seq, ticket.slot, node});
  NodeTimers& mine = node_timers_[node];
  mine.ids.push_back(id);
  ++mine.live;
  return id;
}

void Runtime::RetireTimer(TimerRec& rec) {
  NodeTimers& mine = node_timers_[rec.node];
  rec.node = kDeadTimer;
  --mine.live;
  // The slack keeps a node with a handful of timers from sweeping its
  // list on every retire.
  if (mine.ids.size() >= 2 * mine.live + 8) {
    std::erase_if(mine.ids,
                  [this](TimerId id) { return LiveTimer(id) == nullptr; });
  }
}

void Runtime::CompactTimers() {
  std::size_t dead = 0;
  while (dead < timers_.size() && timers_[dead].node == kDeadTimer) ++dead;
  // Erasing moves at most as many entries as it frees, and a table that
  // is not half dead doubles instead, so this is amortised O(1) per
  // timer.
  if (dead == 0 || 2 * dead < timers_.size()) return;
  timers_.erase(timers_.begin(),
                timers_.begin() + static_cast<std::ptrdiff_t>(dead));
  timer_base_ += dead;
}

bool Runtime::DisarmTimer(TimerId timer) {
  TimerRec* rec = LiveTimer(timer);
  if (rec == nullptr) return false;
  // Tombstone the queued event right away: it still pops (and is
  // discarded below in Dispatch), but no longer counts as pending.
  queue_.Cancel(EventTicket{rec->seq, rec->slot});
  RetireTimer(*rec);
  return true;
}

void Runtime::DeclareLeader(NodeId node) {
  stores_.metrics.RecordLeader(node, ids_[node], now_);
  cores_[node].Record(TraceRecord::Kind::kLeader, node, kInvalidPort, 0, 0);
}

void Runtime::MarkCrashed(NodeId node) {
  if (failed_[node]) return;  // already dead; triggers fire at most once
  failed_[node] = true;
  stores_.metrics.RecordCrash();
  // The node's timers die with it, in id order. Externally identical to
  // the old "discard at dispatch" rule (no metrics either way), but
  // necessary for churn: were a pre-crash timer left live, it would fire
  // into the fresh process a rejoin installs.
  NodeTimers& mine = node_timers_[node];
  for (const TimerId id : mine.ids) {
    if (TimerRec* rec = LiveTimer(id)) {
      queue_.Cancel(EventTicket{rec->seq, rec->slot});
      rec->node = kDeadTimer;
    }
  }
  mine.ids.clear();
  mine.live = 0;
  cores_[node].Crash();
}

void Runtime::MarkRejoined(NodeId node) {
  if (!failed_[node]) return;  // crash trigger never fired: rejoin no-ops
  failed_[node] = false;
  // Crash recovery without stable storage: the node restarts as a fresh
  // process instance; nothing of its previous life survives.
  processes_[node] = factory_(ProcessInit{node, ids_[node], config_.n});
  CELECT_CHECK(processes_[node] != nullptr);
  stores_.metrics.RecordRejoin();
  cores_[node].Rejoin(*processes_[node]);
}

void Runtime::Transmit(NodeId from, NodeId to, wire::Packet packet,
                       std::uint64_t clock, std::uint64_t mid) {
  Metrics& metrics = stores_.metrics;
  metrics.RecordSend(packet.type, wire::EncodedSize(packet));

  // A send-count crash trigger fires *after* this send completes: the
  // message still goes out, later sends in the same handler do not.
  const bool crash_sender = injector_ && injector_->NoteSend(from);

  // Drop, loss and duplicate records belong to the destination's track.
  NodeCore& dest = cores_[to];
  if (failed_[to]) {
    metrics.RecordDrop(DropCause::kCrashedDestination);
    dest.Record(TraceRecord::Kind::kDrop, from, kInvalidPort, packet.type,
                mid);
  } else {
    // One table probe serves both the delay model's sent-count input and
    // the admission — the second lookup was ~10% of hot-path time.
    const LinkTable::LinkRef link = links_.Touch(from, to);
    const MessageInfo info{from, to, now_, links_.SentCount(link), &packet};
    DelayDecision d = config_.delays->Decide(info);
    Admission adm = links_.AdmitWithFaults(link, from, to, now_, d);
    if (adm.lost) {
      metrics.RecordDrop(DropCause::kInjectedLoss);
      dest.Record(TraceRecord::Kind::kLoss, from, kInvalidPort, packet.type,
                  mid);
    } else {
      if (adm.reordered) metrics.RecordReorder();
      Port arrival_port = stores_.mapper->PortToward(to, from);
      const auto mid32 = static_cast<std::uint32_t>(mid);
      const auto send_clock = static_cast<std::uint32_t>(clock);
      auto latency = [&](Time arrival) {
        constexpr std::int64_t kCeiling =
            std::numeric_limits<std::uint32_t>::max();
        const std::int64_t ticks = (arrival - now_).ticks();
        // The 32-bit field clips at ~4096 units of FIFO backlog. Rare,
        // but silence would quietly corrupt the latency histogram — make
        // it loud via counters["sim.latency_saturated"].
        if (ticks > kCeiling) metrics.RecordLatencySaturated();
        return static_cast<std::uint32_t>(std::min(ticks, kCeiling));
      };
      PackedPacket packed;
      const bool fits = packed.PackInline(packet);
      if (adm.duplicate_arrival) {
        metrics.RecordDuplicate();
        dest.Record(TraceRecord::Kind::kDuplicate, from, kInvalidPort,
                    packet.type, mid);
        // A spilled duplicate gets an entry of its own.
        queue_.Push(*adm.duplicate_arrival,
                    DeliveryEvent{from, to, arrival_port, mid32, send_clock,
                                  latency(*adm.duplicate_arrival),
                                  fits ? packed : Spill(packet)});
        ++deliveries_inflight_;
        if (stores_.telemetry) ++pending_deliveries_[to];
      }
      queue_.Push(adm.arrival,
                  DeliveryEvent{from, to, arrival_port, mid32, send_clock,
                                latency(adm.arrival),
                                fits ? packed : Spill(std::move(packet))});
      ++deliveries_inflight_;
      if (stores_.telemetry) ++pending_deliveries_[to];
    }
  }
  if (crash_sender) MarkCrashed(from);
}

PackedPacket Runtime::Spill(wire::Packet packet) {
  const std::uint16_t type = packet.type;
  std::uint32_t index;
  if (spill_free_.empty()) {
    CELECT_CHECK(spill_.size() < std::numeric_limits<std::uint32_t>::max());
    index = static_cast<std::uint32_t>(spill_.size());
    spill_.push_back(std::move(packet));
  } else {
    index = spill_free_.back();
    spill_free_.pop_back();
    spill_[index] = std::move(packet);
  }
  ++spilled_deliveries_;
  return PackedPacket::Spilled(type, index);
}

wire::Packet Runtime::Unspill(std::uint32_t index) {
  spill_free_.push_back(index);
  return std::move(spill_[index]);
}

void Runtime::Dispatch(const Event& e) {
  // A cancelled (or crashed-node) timer still pops from the queue; it
  // must not advance the clock, or quiesce_time would stretch to the
  // deadline of a timer that never fired.
  if (const auto* t = std::get_if<TimerEvent>(&e.body)) {
    TimerRec* rec = LiveTimer(t->timer);
    if (rec == nullptr) return;  // cancelled
    RetireTimer(*rec);
    if (failed_[t->node]) return;  // timers die with their node
    now_ = std::max(now_, e.at);
    cores_[t->node].FireTimer(*processes_[t->node], t->timer);
    return;
  }
  // Monotone clock: under controlled scheduling events dispatch out of
  // time order, so the clock ratchets. In time-ordered runs e.at is
  // never in the past and this is the plain assignment it always was.
  now_ = std::max(now_, e.at);
  if (const auto* w = std::get_if<WakeupEvent>(&e.body)) {
    if (failed_[w->node]) return;  // crashed before its wakeup fired
    cores_[w->node].Wakeup(*processes_[w->node]);
  } else if (const auto* d = std::get_if<DeliveryEvent>(&e.body)) {
    // The link hands the message over either way — in-flight accounting
    // must stay exact even when the destination is gone.
    CELECT_DCHECK(deliveries_inflight_ > 0);
    --deliveries_inflight_;
    // Unpacked on every path, so a dropped delivery frees its spill
    // entry too.
    const wire::Packet packet = Unpack(d->packet);
    obs::Telemetry* telemetry = stores_.telemetry.get();
    if (telemetry) {
      CELECT_DCHECK(pending_deliveries_[d->to] > 0);
      --pending_deliveries_[d->to];
    }
    links_.NotifyDelivered(d->from, d->to);
    NodeCore& core = cores_[d->to];
    const auto fate = failed_[d->to] || !injector_
                          ? FaultInjector::DeliveryFate::kProcess
                          : injector_->NoteDelivery(d->to, packet.type);
    // Mid-handshake death: the node dies with the message unread.
    if (fate == FaultInjector::DeliveryFate::kCrashBeforeProcessing) {
      MarkCrashed(d->to);
    }
    if (failed_[d->to]) {
      stores_.metrics.RecordDrop(DropCause::kCrashedDestination);
      core.Record(TraceRecord::Kind::kDrop, d->from, d->arrival_port,
                  packet.type, d->mid);
      return;
    }
    stores_.metrics.RecordDelivery();
    if (telemetry) {
      telemetry->latency.Add(d->latency_ticks);
      telemetry->queue_depth.Add(pending_deliveries_[d->to]);
    }
    // Unprocessed drops above do not advance the clock — only
    // protocol-visible events do.
    core.Deliver(*processes_[d->to], d->from, d->arrival_port, packet,
                 d->send_clock, d->mid);
    if (fate == FaultInjector::DeliveryFate::kCrashAfterProcessing) {
      MarkCrashed(d->to);
    }
  } else if (const auto* c = std::get_if<CrashEvent>(&e.body)) {
    MarkCrashed(c->node);
  } else if (const auto* rj = std::get_if<RejoinEvent>(&e.body)) {
    CELECT_DCHECK(pending_rejoins_[rj->node] > 0);
    --pending_rejoins_[rj->node];
    MarkRejoined(rj->node);
  }
}

RunInspect Runtime::MakeInspect() {
  RunInspect in;
  in.n = config_.n;
  in.ids = &ids_;
  in.failed = &failed_;
  in.processes = processes_.data();
  in.metrics = &stores_.metrics;
  in.now = now_;
  in.deliveries_inflight = deliveries_inflight_;
  return in;
}

void Runtime::NotifyObserver(const Event& e) {
  if (!options_.observer) return;
  RunInspect in = MakeInspect();
  options_.observer->AfterEvent(EventTarget(e.body), in);
}

bool Runtime::EventIsInert(const Event& e) const {
  if (const auto* t = std::get_if<TimerEvent>(&e.body)) {
    return LiveTimer(t->timer) == nullptr || failed_[t->node];
  }
  if (const auto* rj = std::get_if<RejoinEvent>(&e.body)) {
    return !failed_[rj->node];  // reviving a live node is a no-op
  }
  // Traffic to a dead node is inert only while the node stays dead: with
  // a rejoin pending, "dropped before revival" vs "delivered after" is a
  // real schedule choice the controller must see.
  const NodeId target = EventTarget(e.body);
  return failed_[target] && pending_rejoins_[target] == 0;
}

void Runtime::DrainInert(std::uint64_t& events) {
  // Inert events are deterministic no-ops for protocol state (drop
  // accounting only), so they commute with everything and are dispatched
  // eagerly, lowest seq first, rather than offered as schedule choices.
  for (;;) {
    std::optional<std::uint64_t> seq;
    for (const Event& e : queue_.events()) {
      if (EventIsInert(e) && (!seq || e.seq < *seq)) seq = e.seq;
    }
    if (!seq) return;
    Event e = queue_.Take(*seq);
    CELECT_CHECK(++events <= options_.max_events)
        << "event budget exceeded in controlled run";
    Dispatch(e);
    NotifyObserver(e);
  }
}

void Runtime::RunControlled(std::uint64_t& events) {
  std::vector<const Event*> enabled;
  // Lowest pending seq per directed link — the per-link FIFO gate. Push
  // order equals send order on a link, so the lowest-seq pending
  // delivery is the FIFO head.
  std::unordered_map<std::uint64_t, std::uint64_t> link_head;
  const auto link_key = [this](const DeliveryEvent& d) {
    return static_cast<std::uint64_t>(d.from) * config_.n + d.to;
  };
  for (;;) {
    DrainInert(events);
    const std::vector<Event>& pending = queue_.events();
    if (pending.empty()) return;
    link_head.clear();
    for (const Event& e : pending) {
      if (const auto* d = std::get_if<DeliveryEvent>(&e.body)) {
        auto [it, inserted] = link_head.try_emplace(link_key(*d), e.seq);
        if (!inserted && e.seq < it->second) it->second = e.seq;
      }
    }
    enabled.clear();
    for (const Event& e : pending) {
      if (const auto* d = std::get_if<DeliveryEvent>(&e.body)) {
        if (link_head[link_key(*d)] != e.seq) continue;  // FIFO-blocked
      }
      enabled.push_back(&e);
    }
    CELECT_CHECK(!enabled.empty());
    std::sort(enabled.begin(), enabled.end(),
              [](const Event* a, const Event* b) { return a->seq < b->seq; });
    std::optional<std::size_t> pick =
        options_.controller->ChooseNext(enabled);
    if (!pick) {
      aborted_by_controller_ = true;
      return;
    }
    CELECT_CHECK(*pick < enabled.size());
    Event e = queue_.Take(enabled[*pick]->seq);
    CELECT_CHECK(++events <= options_.max_events)
        << "event budget exceeded in controlled run";
    Dispatch(e);
    NotifyObserver(e);
  }
}

RunResult Runtime::Run() {
  CELECT_CHECK(!ran_) << "Runtime::Run may be called only once";
  ran_ = true;
  Metrics& metrics = stores_.metrics;

  const std::uint64_t wall_start = WallClockNowNs();
  std::uint64_t events = 0;
  if (options_.controller) {
    RunControlled(events);
  } else {
    while (const Event* e = queue_.Pop()) {
      CELECT_CHECK(++events <= options_.max_events)
          << "event budget exceeded — protocol is not quiescing "
          << "(messages so far: " << metrics.messages_sent() << ")";
      Dispatch(*e);
      NotifyObserver(*e);
    }
  }
  if (options_.observer && queue_.Empty()) {
    RunInspect in = MakeInspect();
    options_.observer->AtQuiescence(in);
  }
  // Spans still open at quiescence (protocols that never close their
  // final phase) are closed here so every Begin has a matching End in
  // the aggregates and the export.
  for (NodeCore& core : cores_) core.CloseAllPhases();
  metrics.RecordWallClock(WallClockNowNs() - wall_start, events);

  RunResult r;
  r.leader_id = metrics.leader_id();
  r.leader_node = metrics.leader_node();
  r.leader_declarations = metrics.leader_declarations();
  r.leader_time = metrics.first_leader_time();
  r.quiesce_time = now_;
  r.total_messages = metrics.messages_sent();
  r.total_bytes = metrics.bytes_sent();
  r.events_processed = events;
  r.max_link_load = links_.MaxLinkLoad();
  r.max_link_inflight = links_.MaxLinkInflight();
  r.faults_injected = metrics.crashes_injected();
  r.messages_lost = metrics.dropped_to_loss();
  r.messages_duplicated = metrics.messages_duplicated();
  r.messages_reordered = metrics.messages_reordered();
  r.timers_set = metrics.timers_set();
  r.timers_fired = metrics.timers_fired();
  r.invariant_violations = metrics.invariant_violations();
  r.wall_ns = metrics.wall_ns();
  r.events_per_sec = metrics.events_per_sec();
  r.aborted_by_controller = aborted_by_controller_;
  r.messages_by_type = metrics.by_type();
  r.counters = metrics.registry().counters();
  // Two tallies stay outside the registry and are named here: timer
  // cancels (a fixed field, because a PeerNode reports every registry
  // counter as proto.*) and trace truncation (the trace's own count).
  // Each appears only once nonzero.
  if (const auto c = metrics.timers_cancelled(); c > 0) {
    r.counters["sim.timers_cancelled"] = static_cast<std::int64_t>(c);
  }
  if (const auto d = stores_.trace.dropped(); d > 0) {
    r.counters["sim.trace_truncated"] = static_cast<std::int64_t>(d);
  }
  for (const auto& [key, agg] : stores_.phases) {
    r.phases.emplace(
        obs::PhaseKey(static_cast<obs::PhaseId>(key.first), key.second),
        agg);
  }
  if (stores_.telemetry) r.telemetry = *stores_.telemetry;
  if (stores_.trace.truncated()) {
    // A capped trace must be loud: besides the counter, warn an
    // interactive user that the exported trace is a prefix.
    std::cerr << "[celect] warning: trace truncated — "
              << stores_.trace.dropped() << " records past the cap of "
              << options_.trace_cap
              << " were dropped; raise RuntimeOptions::trace_cap\n";
  }
  return r;
}

}  // namespace celect::sim
