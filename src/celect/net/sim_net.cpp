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
    for (const auto dgram : dgrams) {
      stats_.bytes_sent += dgram.size();
      ++stats_.datagrams_sent;
      net_->Admit(self_, peer, dgram);
    }
    dgrams.clear();
  }

  SimNet* net_;
  PeerId self_;
  SessionTable sessions_;
  std::vector<Arrival> inbox_;  // in arrival order; reused across Polls
  TransportStats stats_;
};

bool SimNet::Later::operator()(const InFlight& a, const InFlight& b) const {
  if (a.at != b.at) return a.at > b.at;
  if (a.channel != b.channel) return a.channel > b.channel;
  return a.order > b.order;
}

bool SimNet::ChannelFirst::operator()(const InFlight& a,
                                      const InFlight& b) const {
  if (a.channel != b.channel) return a.channel < b.channel;
  if (a.at != b.at) return a.at < b.at;
  return a.order < b.order;
}

SimNet::SimNet(const SimNetConfig& config)
    : config_(config), alive_(config.n, true) {
  CELECT_CHECK(config_.n >= 2) << "SimNet needs at least two nodes";
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

void SimNet::Admit(PeerId from, PeerId to,
                   std::span<const std::uint8_t> dgram) {
  if (channels_.empty()) BuildChannels();
  const auto c = static_cast<std::uint32_t>(ChannelIndex(from, to));
  const Micros now = clock_.Now();
  channels_[c].Admit(
      dgram, now, [&](std::span<const std::uint8_t> bytes, Micros at) {
        const DatagramPool::Handle h = pool_.Store(bytes);
        in_flight_.push_back(InFlight{at, admitted_++, c, h});
        std::push_heap(in_flight_.begin(), in_flight_.end(), Later{});
        return pool_.bytes(h);
      });
}

void SimNet::BuildChannels() {
  channels_.reserve(std::size_t{config_.n} * (config_.n - 1));
  for (PeerId from = 0; from < config_.n; ++from) {
    for (PeerId to = 0; to < config_.n; ++to) {
      if (from == to) continue;
      const std::uint64_t seed = SplitMix64(
          config_.seed ^ (std::uint64_t{from} * config_.n + to + 1)).Next();
      channels_.emplace_back(config_.link, seed);
    }
  }
  // Room for one copy per channel before the heap first grows.
  in_flight_.reserve(channels_.size());
}

std::optional<Micros> SimNet::NextArrival() const {
  if (in_flight_.empty()) return std::nullopt;
  return in_flight_.front().at;
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
  const Micros now = clock_.Now();
  // Each pop parks the top just past the shrinking heap, so the due
  // entries gather at the vector's tail.
  auto due = in_flight_.end();
  while (due != in_flight_.begin() && in_flight_.front().at <= now) {
    std::pop_heap(in_flight_.begin(), due, Later{});
    --due;
  }
  std::sort(due, in_flight_.end(), ChannelFirst{});
  receivers_.clear();
  for (auto it = due; it != in_flight_.end(); ++it) {
    const auto from = static_cast<PeerId>(it->channel / (config_.n - 1));
    const auto rest = static_cast<PeerId>(it->channel % (config_.n - 1));
    const PeerId to = rest + (rest >= from ? 1 : 0);
    if (!alive_[to]) {  // dropped on the dead host's floor
      pool_.Release(it->dgram);
      continue;
    }
    nodes_[to]->Receive(from, it->dgram);
    if (receivers_.empty() || receivers_.back() != to) {
      receivers_.push_back(to);
    }
  }
  in_flight_.erase(due, in_flight_.end());
  std::sort(receivers_.begin(), receivers_.end());
  receivers_.erase(std::unique(receivers_.begin(), receivers_.end()),
                   receivers_.end());
  return receivers_;
}

}  // namespace celect::net
