#include "celect/net/sim_net.h"

#include <algorithm>

#include "celect/obs/shard.h"
#include "celect/util/check.h"

namespace celect::net {

// One endpoint of the mesh. Sessions are created lazily per peer (a
// node only pays for peers it actually talks to) and rebuilt with a
// fresh epoch after Restart.
class SimNet::Node final : public Transport {
 public:
  Node(SimNet* net, PeerId self, std::uint64_t epoch)
      : net_(net), self_(self), epoch_(epoch) {
    sessions_.resize(net_->n());
  }

  PeerId self() const override { return self_; }
  PeerId n() const override { return net_->n(); }
  Micros Now() override { return net_->clock_.Now(); }
  std::uint64_t epoch() const override { return epoch_; }
  const obs::FlightRecorder* recorder() const override {
    return &recorder_;
  }

  using Transport::Send;
  void Send(PeerId peer, const wire::Packet& p, TraceContext tc) override {
    CELECT_DCHECK(peer < n() && peer != self_);
    Session(peer).SendPacket(p, Now(), tc);
    Flush(peer);
  }

  void Poll(std::vector<TransportEvent>& out) override {
    Micros now = Now();
    // Feed received datagrams first so acks suppress retransmits that
    // would otherwise fire on this same Tick.
    for (auto& [from, dgram] : inbox_) {
      Session(from).OnDatagram(dgram.data(), dgram.size(), now);
    }
    inbox_.clear();
    for (PeerId peer = 0; peer < n(); ++peer) {
      auto* s = sessions_[peer].get();
      if (s == nullptr) continue;
      s->Tick(now);
      for (auto& d : s->delivered()) {
        out.push_back(TransportEvent{TransportEvent::Kind::kPacket, peer,
                                     std::move(d.packet), d.tc.clock,
                                     d.tc.mid});
      }
      s->delivered().clear();
      if (s->TakePeerRestart()) {
        out.push_back(TransportEvent{TransportEvent::Kind::kPeerRestart, peer,
                                     wire::Packet{}});
      }
      if (s->TakeSuspect()) {
        out.push_back(TransportEvent{TransportEvent::Kind::kSuspect, peer,
                                     wire::Packet{}});
      }
      Flush(peer);
    }
  }

  std::optional<Micros> NextWake() const override {
    std::optional<Micros> wake;
    for (const auto& s : sessions_) {
      if (s == nullptr) continue;
      auto w = s->NextWake();
      if (w && (!wake || *w < *wake)) wake = w;
    }
    return wake;
  }

  TransportStats Stats() const override {
    TransportStats st = stats_;
    for (const auto& s : sessions_) {
      if (s != nullptr) st.sessions.MergeFrom(s->stats());
    }
    return st;
  }

  void Receive(PeerId from, std::vector<std::uint8_t> dgram) {
    stats_.bytes_received += dgram.size();
    ++stats_.datagrams_received;
    inbox_.emplace_back(from, std::move(dgram));
  }

 private:
  ReliableSession& Session(PeerId peer) {
    auto& slot = sessions_[peer];
    if (slot == nullptr) {
      SessionParams params = net_->config_.session;
      params.seed = SplitMix64(net_->config_.seed ^ (epoch_ * 0x9e37u) ^
                               (std::uint64_t{self_} << 32) ^ peer)
                        .Next();
      params.recorder = &recorder_;
      params.recorder_peer = peer;
      slot = std::make_unique<ReliableSession>(epoch_, params);
    }
    return *slot;
  }

  void Flush(PeerId peer) {
    auto& out = Session(peer).outbox();
    if (out.empty()) return;
    Micros now = Now();
    const std::size_t c = net_->ChannelIndex(self_, peer);
    FakeLink& channel = *net_->channels_[c];
    const std::optional<Micros> old_head = channel.NextDelivery();
    for (auto& dgram : out) {
      stats_.bytes_sent += dgram.size();
      ++stats_.datagrams_sent;
      channel.Send(dgram, now);
    }
    out.clear();
    net_->Reindex(c, old_head);
  }

  SimNet* net_;
  PeerId self_;
  std::uint64_t epoch_;
  obs::FlightRecorder recorder_;
  std::vector<std::unique_ptr<ReliableSession>> sessions_;
  std::deque<std::pair<PeerId, std::vector<std::uint8_t>>> inbox_;
  TransportStats stats_;
};

SimNet::SimNet(const SimNetConfig& config)
    : config_(config), alive_(config.n, true) {
  CELECT_CHECK(config_.n >= 2) << "SimNet needs at least two nodes";
  channels_.resize(std::size_t{config_.n} * config_.n);
  for (PeerId from = 0; from < config_.n; ++from) {
    for (PeerId to = 0; to < config_.n; ++to) {
      if (from == to) continue;
      FakeLinkParams lp = config_.link;
      lp.seed = SplitMix64(config_.seed ^
                           (std::uint64_t{from} * config_.n + to + 1))
                    .Next();
      channels_[ChannelIndex(from, to)] = std::make_unique<FakeLink>(lp);
    }
  }
  nodes_.resize(config_.n);
  for (PeerId i = 0; i < config_.n; ++i) {
    nodes_[i] = std::make_unique<Node>(this, i, NextEpoch());
  }
}

SimNet::~SimNet() = default;

Transport& SimNet::at(PeerId i) {
  CELECT_CHECK(i < config_.n);
  return *nodes_[i];
}

void SimNet::Kill(PeerId i) {
  CELECT_CHECK(i < config_.n);
  alive_[i] = false;
  // The process died: every byte of its session state is gone. The
  // Transport object survives so references held by the driver stay
  // valid, but it is rebuilt empty.
  nodes_[i] = std::make_unique<Node>(this, i, 0);
}

void SimNet::Restart(PeerId i) {
  CELECT_CHECK(i < config_.n);
  alive_[i] = true;
  nodes_[i] = std::make_unique<Node>(this, i, NextEpoch());
}

void SimNet::Reindex(std::size_t c, std::optional<Micros> old_head) {
  const std::optional<Micros> head = channels_[c]->NextDelivery();
  if (head == old_head) return;
  if (old_head) arrivals_.erase({*old_head, c});
  if (head) arrivals_.emplace(*head, c);
}

std::optional<Micros> SimNet::NextArrival() const {
  if (arrivals_.empty()) return std::nullopt;
  return arrivals_.begin()->first;
}

std::optional<Micros> SimNet::NextEvent() const {
  std::optional<Micros> next = NextArrival();
  for (PeerId i = 0; i < config_.n; ++i) {
    if (!alive_[i]) continue;
    auto t = nodes_[i]->NextWake();
    if (t && (!next || *t < *next)) next = t;
  }
  return next;
}

const std::vector<PeerId>& SimNet::DeliverDue() {
  Micros now = clock_.Now();
  due_channels_.clear();
  while (!arrivals_.empty() && arrivals_.begin()->first <= now) {
    due_channels_.push_back(arrivals_.begin()->second);
    arrivals_.erase(arrivals_.begin());
  }
  // Channel-index order is (from, to) order: each inbox fills by sender.
  std::sort(due_channels_.begin(), due_channels_.end());
  receivers_.clear();
  for (std::size_t c : due_channels_) {
    FakeLink& channel = *channels_[c];
    due_dgrams_.clear();
    channel.DeliverDue(now, due_dgrams_);
    if (auto head = channel.NextDelivery()) arrivals_.emplace(*head, c);
    const auto from = static_cast<PeerId>(c / config_.n);
    const auto to = static_cast<PeerId>(c % config_.n);
    if (!alive_[to]) continue;  // dropped on the dead host's floor
    for (auto& dgram : due_dgrams_) {
      nodes_[to]->Receive(from, std::move(dgram));
    }
    receivers_.push_back(to);
  }
  std::sort(receivers_.begin(), receivers_.end());
  receivers_.erase(std::unique(receivers_.begin(), receivers_.end()),
                   receivers_.end());
  return receivers_;
}

}  // namespace celect::net
