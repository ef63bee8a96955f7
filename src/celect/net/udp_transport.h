// Real-socket transport: one UDP socket per node on 127.0.0.1.
//
// Node i binds base_port + i; the peer address map is static, which is
// all a complete network needs. The same ReliableSession stack as the
// in-memory path runs on top, so elections survive genuine datagram
// loss and process kills — and for testing, a seeded send-side loss
// injector drops outgoing datagrams before they reach the socket,
// giving the multi-process demo its 10% chaos without tc/netem.
#pragma once

#include <vector>

#include "celect/net/clock.h"
#include "celect/net/session_table.h"
#include "celect/net/transport.h"
#include "celect/util/rng.h"

namespace celect::net {

struct UdpTransportConfig {
  PeerId self = 0;
  PeerId n = 2;
  std::uint16_t base_port = 47000;
  SessionParams session;
  double send_loss = 0.0;   // injected outgoing-datagram drop rate
  std::uint64_t seed = 1;   // loss injector + session jitter
  std::uint64_t epoch = 0;  // 0 → HostEpoch()
};

class UdpTransport final : public Transport {
 public:
  explicit UdpTransport(const UdpTransportConfig& config);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // Binds the socket; false (with errno intact) on failure.
  bool Open();

  PeerId self() const override { return config_.self; }
  PeerId n() const override { return config_.n; }
  Micros Now() override { return clock_.Now(); }
  using Transport::Send;
  void Send(PeerId peer, const wire::Packet& p, TraceContext tc) override;
  void Poll(std::vector<TransportEvent>& out) override;
  std::optional<Micros> NextWake() const override {
    return sessions_.NextWake();
  }
  TransportStats Stats() const override { return sessions_.Stats(stats_); }
  std::uint64_t epoch() const override { return sessions_.epoch(); }
  const obs::FlightRecorder* recorder() const override {
    return &sessions_.recorder();
  }

 private:
  std::uint64_t SessionSeed(PeerId peer) const;
  void Flush(PeerId peer, DatagramQueue& dgrams);
  void DrainSocket();

  UdpTransportConfig config_;
  MonotonicClock clock_;
  Rng loss_rng_;
  int fd_ = -1;
  SessionTable sessions_;
  TransportStats stats_;
};

}  // namespace celect::net
