#include "celect/net/peer_node.h"

#include <algorithm>
#include <string>

#include "celect/util/check.h"
#include "celect/util/rng.h"

namespace celect::net {

PeerNode::PeerNode(const PeerNodeConfig& config, Transport& transport,
                   const sim::ProcessFactory& factory)
    : config_(config),
      transport_(transport),
      mapper_(transport.n()),
      stores_(&mapper_, config.trace, config.trace_cap),
      core_(static_cast<sim::NodeHost&>(*this), stores_, transport.self(),
            config.id) {
  CELECT_CHECK(config_.unit_us > 0);
  process_ = factory(sim::ProcessInit{transport_.self(), config_.id,
                                      transport_.n()});
  // High 44 bits identify this incarnation (epoch is unique per node
  // incarnation); the low 20 bits count sends. A node that sends more
  // than 2^20 messages rolls into + carry — mids stay unique, they just
  // stop being prefix-groupable, which nothing relies on.
  stores_.mid_base = SplitMix64(transport_.epoch() ^
                                (std::uint64_t{transport_.self()} << 32) ^
                                0x5a1de5a1deULL)
                         .Next()
                     << 20;
}

PeerNode::~PeerNode() = default;

std::int64_t PeerNode::TicksOf(Micros at) const {
  // Split to keep at * 2^20 well inside int64 even for long runs.
  std::int64_t units = static_cast<std::int64_t>(at / config_.unit_us);
  std::int64_t rem = static_cast<std::int64_t>(at % config_.unit_us);
  return units * sim::Time::kTicksPerUnit +
         rem * sim::Time::kTicksPerUnit /
             static_cast<std::int64_t>(config_.unit_us);
}

sim::Time PeerNode::Now() {
  return sim::Time::FromTicks(TicksOf(transport_.Now()));
}

Micros PeerNode::DelayToMicros(sim::Time delay) const {
  std::int64_t t = delay.ticks();
  if (t <= 0) return 0;
  std::int64_t unit = static_cast<std::int64_t>(config_.unit_us);
  return static_cast<Micros>(t / sim::Time::kTicksPerUnit * unit +
                             t % sim::Time::kTicksPerUnit * unit /
                                 sim::Time::kTicksPerUnit);
}

void PeerNode::Transmit(sim::NodeId /*from*/, sim::NodeId to,
                        wire::Packet packet, std::uint64_t clock,
                        std::uint64_t mid) {
  transport_.Send(to, packet, TraceContext{clock, mid});
}

sim::TimerId PeerNode::ArmTimer(sim::NodeId /*node*/, sim::Time delay) {
  const sim::TimerId id = next_timer_++;
  timers_.insert({transport_.Now() + DelayToMicros(delay), id});
  return id;
}

bool PeerNode::DisarmTimer(sim::TimerId timer) {
  const auto it = std::find_if(
      timers_.begin(), timers_.end(),
      [timer](const auto& armed) { return armed.second == timer; });
  if (it == timers_.end()) return false;
  timers_.erase(it);
  return true;
}

void PeerNode::DeclareLeader(sim::NodeId /*node*/) {
  declared_self_ = true;
  Believe(config_.id);
}

void PeerNode::Believe(sim::Id leader) {
  if (leader_ && *leader_ >= leader) return;
  leader_ = leader;
  core_.Record(sim::TraceRecord::Kind::kLeader, transport_.self(),
               sim::kInvalidPort, 0, static_cast<std::uint64_t>(leader));
  // Announce promptly so a fresh belief propagates within one pump.
  next_announce_ = transport_.Now();
}

void PeerNode::Start() {
  if (started_) return;
  started_ = true;
  if (config_.rejoin) {
    core_.Rejoin(*process_);
  } else {
    core_.Wakeup(*process_);
  }
}

void PeerNode::Dispatch(const TransportEvent& ev) {
  ++events_dispatched_;
  digest_.Update(static_cast<std::uint8_t>(ev.kind));
  digest_.Update(static_cast<std::uint8_t>(ev.peer));
  const sim::Port port = mapper_.PortToward(transport_.self(), ev.peer);
  switch (ev.kind) {
    case TransportEvent::Kind::kPacket: {
      digest_.Update(static_cast<std::uint8_t>(ev.packet.type));
      digest_.Update(static_cast<std::uint8_t>(ev.packet.type >> 8));
      for (std::int64_t f : ev.packet.fields) {
        for (int i = 0; i < 8; ++i) {
          digest_.Update(static_cast<std::uint8_t>(
              static_cast<std::uint64_t>(f) >> (8 * i)));
        }
      }
      // Gossip joins the sender's clock too, so it stays on the causal
      // timeline, but it is no protocol delivery.
      if (ev.packet.type == kAnnouncePacketType) {
        core_.Receive(ev.peer, port, ev.packet.type, ev.tc_clock, ev.tc_mid);
        if (!ev.packet.fields.empty()) Believe(ev.packet.field(0));
        return;
      }
      core_.Deliver(*process_, ev.peer, port, ev.packet, ev.tc_clock,
                    ev.tc_mid);
      return;
    }
    case TransportEvent::Kind::kSuspect:
      ++suspicions_seen_;
      process_->OnPeerSuspected(core_, port);
      return;
    case TransportEvent::Kind::kPeerRestart:
      // The reliability layer already resynced; nothing protocol-level
      // to do — the revived peer re-enters via its own OnRejoin.
      return;
  }
}

void PeerNode::FireDueTimers() {
  while (!timers_.empty()) {
    auto [deadline, id] = *timers_.begin();
    if (deadline > transport_.Now()) break;
    timers_.erase(timers_.begin());
    digest_.Update(0x7D);  // timer-fired marker
    digest_.Update(static_cast<std::uint8_t>(id));
    core_.FireTimer(*process_, id);
  }
}

void PeerNode::Announce() {
  wire::Packet p;
  p.type = kAnnouncePacketType;
  p.fields.push_back(*leader_);
  for (PeerId peer = 0; peer < transport_.n(); ++peer) {
    if (peer != transport_.self()) core_.SendHost(peer, p);
  }
  next_announce_ = transport_.Now() + config_.announce_interval_us;
}

void PeerNode::Pump() {
  Start();
  events_.clear();
  transport_.Poll(events_);
  for (const TransportEvent& ev : events_) Dispatch(ev);
  FireDueTimers();
  if (leader_ && transport_.Now() >= next_announce_) Announce();
}

obs::MetricsRegistry PeerNode::SnapshotMetrics() const {
  obs::MetricsRegistry m;
  for (const auto& [name, value] : stores_.metrics.registry().counters()) {
    if (value > 0) m.AddCounter("proto." + name, value);
  }
  m.AddCounter("node.events_dispatched", events_dispatched_);
  m.AddCounter("node.suspicions_seen", suspicions_seen_);
  m.AddCounter("node.trace_dropped", stores_.trace.dropped());
  TransportStats st = transport_.Stats();
  m.AddCounter("net.datagrams_sent", st.datagrams_sent);
  m.AddCounter("net.datagrams_received", st.datagrams_received);
  m.AddCounter("net.retransmits", st.sessions.data_retransmits);
  m.AddCounter("net.delivered", st.sessions.delivered);
  m.AddCounter("net.suspicions", st.sessions.suspicions);
  m.AddCounter("net.peer_restarts", st.sessions.peer_restarts);
  m.AddCounter("net.version_mismatch", st.sessions.version_mismatch);
  m.AddCounter("net.rtt_samples_dropped",
               st.sessions.rtt_samples_dropped);
  m.MergeHistogram("rtt_us", st.sessions.rtt_us);
  m.MergeHistogram("backoff_us", st.sessions.backoff_us);
  m.MergeHistogram("window_occupancy", st.sessions.window);
  m.MergeHistogram("suspicion_us", st.sessions.suspicion_us);
  return m;
}

obs::TraceShard PeerNode::MakeShard(bool complete) const {
  obs::TraceShard s;
  s.node = transport_.self();
  s.epoch = transport_.epoch();
  s.complete = complete;
  s.dropped = stores_.trace.dropped();
  s.label = "id=" + std::to_string(config_.id);
  s.records = stores_.trace.records();
  if (const obs::FlightRecorder* rec = transport_.recorder()) {
    s.flight = rec->Snapshot();
    for (auto& f : s.flight) {
      f.at = static_cast<std::uint64_t>(
          TicksOf(static_cast<Micros>(f.at)));
    }
  }
  s.metrics = SnapshotMetrics();
  return s;
}

std::optional<Micros> PeerNode::NextWake() const {
  std::optional<Micros> wake = transport_.NextWake();
  auto consider = [&wake](Micros t) {
    if (!wake || t < *wake) wake = t;
  };
  if (!timers_.empty()) consider(timers_.begin()->first);
  if (leader_) consider(next_announce_);
  return wake;
}

}  // namespace celect::net
