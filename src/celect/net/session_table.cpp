#include "celect/net/session_table.h"

#include <algorithm>
#include <utility>

namespace celect::net {

SessionTable::SessionTable(PeerId n, std::uint64_t epoch,
                           const SessionParams& params,
                           std::function<std::uint64_t(PeerId)> seed_of)
    : epoch_(epoch),
      params_(params),
      seed_of_(std::move(seed_of)),
      slots_(n) {}

ReliableSession& SessionTable::Session(PeerId peer) {
  Slot& slot = slots_[peer];
  if (slot.session == nullptr) {
    slot.session = std::make_unique<ReliableSession>(
        epoch_, seed_of_(peer), params_, endpoint_, &recorder_, peer);
  }
  return *slot.session;
}

DatagramQueue& SessionTable::Send(PeerId peer, const wire::Packet& p,
                                  Micros now, TraceContext tc) {
  ReliableSession& s = Session(peer);
  s.SendPacket(p, now, tc);
  Rewake(slots_[peer]);
  return endpoint_.outbox;
}

DatagramQueue& SessionTable::Tick(PeerId peer, Micros now,
                                  std::vector<TransportEvent>& out) {
  Slot& slot = slots_[peer];
  ReliableSession& s = *slot.session;
  s.Tick(now);
  for (auto& d : s.delivered()) {
    out.push_back(TransportEvent{TransportEvent::Kind::kPacket, peer,
                                 std::move(d.packet), d.tc.clock, d.tc.mid});
  }
  s.delivered().clear();
  if (s.TakePeerRestart()) {
    out.push_back(TransportEvent{TransportEvent::Kind::kPeerRestart, peer,
                                 wire::Packet{}});
  }
  if (s.TakeSuspect()) {
    out.push_back(
        TransportEvent{TransportEvent::Kind::kSuspect, peer, wire::Packet{}});
  }
  slot.marked = false;
  Rewake(slot);
  return endpoint_.outbox;
}

std::optional<Micros> SessionTable::NextWake() const {
  Micros wake = kIdle;
  for (const Slot& slot : slots_) wake = std::min(wake, slot.wake);
  if (wake == kIdle) return std::nullopt;
  return wake;
}

TransportStats SessionTable::Stats(const TransportStats& link) const {
  TransportStats st = link;
  st.sessions = endpoint_.stats;
  return st;
}

}  // namespace celect::net
