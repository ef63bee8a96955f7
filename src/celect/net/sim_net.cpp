#include "celect/net/sim_net.h"

#include <algorithm>

#include "celect/net/session_table.h"
#include "celect/util/check.h"

namespace celect::net {

// One endpoint of the mesh. Sessions are created lazily per peer (a
// node only pays for peers it actually talks to) and rebuilt with a
// fresh epoch after Restart.
class SimNet::Node final : public Transport {
 public:
  Node(SimNet* net, PeerId self, std::uint64_t epoch)
      : net_(net),
        self_(self),
        sessions_(net->n(), epoch, net->config_.session,
                  [this](PeerId peer) { return SessionSeed(peer); }) {}
  ~Node() override {
    for (const Arrival& a : inbox_) net_->pool_.Release(a.dgram);
  }

  PeerId self() const override { return self_; }
  PeerId n() const override { return net_->n(); }
  Micros Now() override { return net_->clock_.Now(); }
  std::uint64_t epoch() const override { return sessions_.epoch(); }
  const obs::FlightRecorder* recorder() const override {
    return &sessions_.recorder();
  }

  using Transport::Send;
  void Send(PeerId peer, const wire::Packet& p, TraceContext tc) override {
    CELECT_DCHECK(peer < n() && peer != self_);
    Flush(peer, sessions_.Send(peer, p, Now(), tc));
  }

  void Poll(std::vector<TransportEvent>& out) override {
    const Micros now = Now();
    // Feed received datagrams first so acks suppress retransmits that
    // would otherwise fire on this same Tick.
    auto flush = [this](PeerId peer, DatagramQueue& dgrams) {
      Flush(peer, dgrams);
    };
    DatagramPool& pool = net_->pool_;
    for (const Arrival& a : inbox_) {
      const auto bytes = pool.bytes(a.dgram);
      sessions_.Receive(a.from, bytes.data(), bytes.size(), now, flush);
      pool.Release(a.dgram);
    }
    inbox_.clear();
    sessions_.Poll(now, out, flush);
  }

  std::optional<Micros> NextWake() const override {
    return sessions_.NextWake();
  }

  TransportStats Stats() const override { return sessions_.Stats(stats_); }

  // Takes over a delivered datagram's pool slot until the next Poll.
  void Receive(PeerId from, DatagramPool::Handle dgram) {
    stats_.bytes_received += net_->pool_.bytes(dgram).size();
    ++stats_.datagrams_received;
    inbox_.push_back(Arrival{from, dgram});
  }

 private:
  struct Arrival {
    PeerId from;
    DatagramPool::Handle dgram;
  };

  std::uint64_t SessionSeed(PeerId peer) const {
    return SplitMix64(net_->config_.seed ^ (sessions_.epoch() * 0x9e37u) ^
                      (std::uint64_t{self_} << 32) ^ peer)
        .Next();
  }

  void Flush(PeerId peer, DatagramQueue& dgrams) {
    if (dgrams.empty()) return;
    const Micros now = Now();
    const std::size_t c = net_->ChannelIndex(self_, peer);
    FakeLink& channel = net_->channels_[c];
    const std::optional<Micros> old_head = channel.NextDelivery();
    for (const auto dgram : dgrams) {
      stats_.bytes_sent += dgram.size();
      ++stats_.datagrams_sent;
      channel.Send(dgram, now);
    }
    dgrams.clear();
    net_->Reindex(c, old_head);
  }

  SimNet* net_;
  PeerId self_;
  SessionTable sessions_;
  std::vector<Arrival> inbox_;  // in arrival order; reused across Polls
  TransportStats stats_;
};

SimNet::ArrivalIndex::ArrivalIndex(std::size_t channels)
    : slot_(channels, kAbsent) {
  heap_.reserve(channels);
}

void SimNet::ArrivalIndex::Set(std::size_t c, std::optional<Micros> head) {
  const std::uint32_t i = slot_[c];
  if (!head) {
    if (i == kAbsent) return;
    slot_[c] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) Place(i, last);
    return;
  }
  const Entry e{*head, static_cast<std::uint32_t>(c)};
  if (i != kAbsent) {
    Place(i, e);
    return;
  }
  heap_.push_back(e);
  Place(heap_.size() - 1, e);
}

void SimNet::ArrivalIndex::Place(std::size_t i, Entry e) {
  while (i > 0) {  // up
    const std::size_t parent = (i - 1) / 2;
    if (heap_[parent].at <= e.at) break;
    heap_[i] = heap_[parent];
    slot_[heap_[i].channel] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  for (;;) {  // down
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && heap_[child + 1].at < heap_[child].at) {
      ++child;
    }
    if (e.at <= heap_[child].at) break;
    heap_[i] = heap_[child];
    slot_[heap_[i].channel] = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap_[i] = e;
  slot_[e.channel] = static_cast<std::uint32_t>(i);
}

SimNet::SimNet(const SimNetConfig& config)
    : config_(config),
      alive_(config.n, true),
      arrivals_(std::size_t{config.n} * (config.n - 1)) {
  CELECT_CHECK(config_.n >= 2) << "SimNet needs at least two nodes";
  channels_.reserve(std::size_t{config_.n} * (config_.n - 1));
  for (PeerId from = 0; from < config_.n; ++from) {
    for (PeerId to = 0; to < config_.n; ++to) {
      if (from == to) continue;
      FakeLinkParams lp = config_.link;
      lp.seed = SplitMix64(config_.seed ^
                           (std::uint64_t{from} * config_.n + to + 1))
                    .Next();
      channels_.emplace_back(lp, pool_);
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
  const std::optional<Micros> head = channels_[c].NextDelivery();
  if (head != old_head) arrivals_.Set(c, head);
}

std::optional<Micros> SimNet::NextArrival() const {
  if (arrivals_.empty()) return std::nullopt;
  return arrivals_.next();
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
  while (!arrivals_.empty() && arrivals_.next() <= now) {
    due_channels_.push_back(arrivals_.top());
    arrivals_.Pop();
  }
  // Channel-index order is (from, to) order: each inbox fills by sender.
  std::sort(due_channels_.begin(), due_channels_.end());
  receivers_.clear();
  for (std::size_t c : due_channels_) {
    FakeLink& channel = channels_[c];
    due_dgrams_.clear();
    channel.DeliverDue(now, due_dgrams_);
    arrivals_.Set(c, channel.NextDelivery());
    const auto from = static_cast<PeerId>(c / (config_.n - 1));
    const auto rest = static_cast<PeerId>(c % (config_.n - 1));
    const PeerId to = rest + (rest >= from ? 1 : 0);
    if (!alive_[to]) {  // dropped on the dead host's floor
      for (DatagramPool::Handle dgram : due_dgrams_) pool_.Release(dgram);
      continue;
    }
    for (DatagramPool::Handle dgram : due_dgrams_) {
      nodes_[to]->Receive(from, dgram);
    }
    receivers_.push_back(to);
  }
  std::sort(receivers_.begin(), receivers_.end());
  receivers_.erase(std::unique(receivers_.begin(), receivers_.end()),
                   receivers_.end());
  return receivers_;
}

}  // namespace celect::net
