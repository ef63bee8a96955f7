#include "celect/sim/node_core.h"

#include <algorithm>

#include "celect/util/check.h"

namespace celect::sim {

NodeCore::NodeCore(NodeHost& host, HostStores& stores, NodeId self, Id id)
    : host_(host),
      stores_(stores),
      self_(self),
      n_(stores.mapper->n()),
      id_(id) {}

void NodeCore::Record(TraceRecord::Kind kind, NodeId peer, Port port,
                      std::uint16_t type, std::uint64_t mid) {
  if (!stores_.trace.enabled()) return;
  TraceRecord r{kind, host_.Now(), self_, peer, port, type, 0};
  r.clock = clock_;
  r.mid = mid;
  if (!phases_.empty()) {
    r.phase = phases_.back().id;
    r.phase_level = phases_.back().level;
  }
  stores_.trace.Record(r);
}

void NodeCore::Wakeup(Process& p) {
  ++clock_;
  Record(TraceRecord::Kind::kWakeup, self_, kInvalidPort, 0, 0);
  p.OnWakeup(*this);
}

void NodeCore::Receive(NodeId from, Port port, std::uint16_t type,
                       std::uint64_t send_clock, std::uint64_t mid) {
  clock_ = std::max(clock_, send_clock) + 1;
  Record(TraceRecord::Kind::kDeliver, from, port, type, mid);
}

void NodeCore::Deliver(Process& p, NodeId from, Port port,
                       const wire::Packet& packet, std::uint64_t send_clock,
                       std::uint64_t mid) {
  Receive(from, port, packet.type, send_clock, mid);
  p.OnMessage(*this, port, packet);
}

void NodeCore::FireTimer(Process& p, TimerId timer) {
  stores_.metrics.RecordTimerFired();
  ++clock_;
  Record(TraceRecord::Kind::kTimerFire, self_, kInvalidPort, 0, timer);
  p.OnTimer(*this, timer);
}

void NodeCore::Crash() {
  down_ = true;
  Record(TraceRecord::Kind::kCrash, self_, kInvalidPort, 0, 0);
  // A dead node's spans end at its death, not at quiescence.
  CloseAllPhases();
}

void NodeCore::Rejoin(Process& p) {
  down_ = false;
  Record(TraceRecord::Kind::kRejoin, self_, kInvalidPort, 0, 0);
  p.OnRejoin(*this);
}

void NodeCore::Emit(NodeId to, Port port, wire::Packet&& packet) {
  // Every send is a local Lamport event and mints a fresh message uid;
  // every outcome of the message carries the same uid, which is what
  // makes trace flows pair exactly.
  ++clock_;
  const std::uint64_t mid = stores_.mid_base + ++stores_.mids_minted;
  Record(TraceRecord::Kind::kSend, to, port, packet.type, mid);
  if (!phases_.empty()) {
    PhaseFrame& top = phases_.back();
    ++top.messages;
    ++top.agg->messages;
  }
  host_.Transmit(self_, to, std::move(packet), clock_, mid);
}

void NodeCore::Send(Port port, wire::Packet p) {
  // A node that crashed earlier in this very handler sends nothing more.
  if (down_) return;
  CELECT_CHECK(port >= 1 && port <= n_ - 1)
      << "node " << self_ << " sent on invalid port " << port;
  const NodeId to = stores_.mapper->Resolve(self_, port);
  CELECT_DCHECK(to != self_);
  Emit(to, port, std::move(p));
}

void NodeCore::SendAll(wire::Packet p) {
  for (Port port = 1; port <= n_ - 1; ++port) Send(port, p);
}

void NodeCore::SendHost(NodeId to, wire::Packet packet) {
  Emit(to, stores_.mapper->PortToward(self_, to), std::move(packet));
}

TimerId NodeCore::SetTimer(Time delay) {
  const TimerId timer = host_.ArmTimer(self_, delay);
  stores_.metrics.RecordTimerSet();
  Record(TraceRecord::Kind::kTimerSet, self_, kInvalidPort, 0, timer);
  return timer;
}

void NodeCore::CancelTimer(TimerId timer) {
  if (!host_.DisarmTimer(timer)) return;  // fired or cancelled
  stores_.metrics.RecordTimerCancelled();
  Record(TraceRecord::Kind::kTimerCancel, self_, kInvalidPort, 0, timer);
}

void NodeCore::AddCounter(const CounterRef& c, std::int64_t delta) {
  obs::MetricsRegistry& r = stores_.metrics.registry();
  if (c.slot == CounterRef::kUnresolved) {
    r.AddCounter(c.name, delta);
  } else {
    r.AddCounter(c.slot, delta);
  }
}

void NodeCore::MaxCounter(const CounterRef& c, std::int64_t value) {
  obs::MetricsRegistry& r = stores_.metrics.registry();
  if (c.slot == CounterRef::kUnresolved) {
    r.MaxCounter(c.name, value);
  } else {
    r.MaxCounter(c.slot, value);
  }
}

void NodeCore::BeginPhase(obs::PhaseId phase, std::int64_t level) {
  if (phase == obs::PhaseId::kNone) return;
  obs::PhaseAgg& agg =
      stores_.phases[{static_cast<std::uint16_t>(phase), level}];
  phases_.push_back(PhaseFrame{phase, level, host_.Now(), 0, &agg});
  // After the push the new span is innermost, so the record carries the
  // span being opened.
  Record(TraceRecord::Kind::kPhaseBegin, self_, kInvalidPort, 0, 0);
}

void NodeCore::EndPhase(obs::PhaseId phase) {
  std::size_t keep = phases_.size();
  while (keep > 0 && phases_[keep - 1].id != phase) --keep;
  if (keep == 0) return;  // no open span of this phase: defensive no-op
  // Close the matching span and anything still nested inside it.
  while (phases_.size() >= keep) CloseTopPhase();
}

void NodeCore::CloseAllPhases() {
  while (!phases_.empty()) CloseTopPhase();
}

void NodeCore::CloseTopPhase() {
  // Record while the frame is still innermost so the kPhaseEnd record
  // carries the span's own phase.
  Record(TraceRecord::Kind::kPhaseEnd, self_, kInvalidPort, 0, 0);
  const PhaseFrame f = phases_.back();
  phases_.pop_back();
  f.agg->spans += 1;
  f.agg->ticks += (host_.Now() - f.since).ticks();
  if (stores_.telemetry && (f.id == obs::PhaseId::kCapture1 ||
                            f.id == obs::PhaseId::kCapture2)) {
    stores_.telemetry->capture_width.Add(f.messages);
  }
}

}  // namespace celect::sim
