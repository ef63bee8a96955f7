#include "celect/net/udp_transport.h"

#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "celect/util/check.h"

namespace celect::net {

namespace {

sockaddr_in PeerAddr(std::uint16_t base_port, PeerId peer) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(base_port + peer));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

UdpTransport::UdpTransport(const UdpTransportConfig& config)
    : config_(config),
      loss_rng_(SplitMix64(config.seed ^ 0x10551055ULL).Next()),
      sessions_(config.n, config.epoch != 0 ? config.epoch : HostEpoch(),
                config.session,
                [this](PeerId peer) { return SessionSeed(peer); }) {}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

bool UdpTransport::Open() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = PeerAddr(config_.base_port, config_.self);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  return true;
}

std::uint64_t UdpTransport::SessionSeed(PeerId peer) const {
  return SplitMix64(config_.seed ^ sessions_.epoch() ^
                    (std::uint64_t{peer} << 20))
      .Next();
}

void UdpTransport::Flush(PeerId peer, DatagramQueue& dgrams) {
  sockaddr_in addr = PeerAddr(config_.base_port, peer);
  for (const auto dgram : dgrams) {
    if (config_.send_loss > 0 &&
        loss_rng_.NextDouble() < config_.send_loss) {
      ++stats_.send_loss_injected;
      continue;
    }
    ++stats_.datagrams_sent;
    stats_.bytes_sent += dgram.size();
    ::sendto(fd_, dgram.data(), dgram.size(), 0,
             reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  dgrams.clear();
}

void UdpTransport::Send(PeerId peer, const wire::Packet& p,
                        TraceContext tc) {
  CELECT_DCHECK(peer < config_.n && peer != config_.self);
  Flush(peer, sessions_.Send(peer, p, Now(), tc));
}

void UdpTransport::DrainSocket() {
  auto flush = [this](PeerId peer, DatagramQueue& dgrams) {
    Flush(peer, dgrams);
  };
  std::uint8_t buf[2048];
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    ssize_t got = ::recvfrom(fd_, buf, sizeof(buf), 0,
                             reinterpret_cast<sockaddr*>(&from), &from_len);
    if (got <= 0) return;  // EWOULDBLOCK or error: nothing more to read
    std::uint16_t port = ntohs(from.sin_port);
    if (port < config_.base_port ||
        port >= config_.base_port + config_.n) {
      continue;  // not one of ours
    }
    PeerId peer = static_cast<PeerId>(port - config_.base_port);
    if (peer == config_.self) continue;
    ++stats_.datagrams_received;
    stats_.bytes_received += static_cast<std::uint64_t>(got);
    sessions_.Receive(peer, buf, static_cast<std::size_t>(got), Now(), flush);
  }
}

void UdpTransport::Poll(std::vector<TransportEvent>& out) {
  if (fd_ < 0) return;
  DrainSocket();
  sessions_.Poll(Now(), out, [this](PeerId peer, DatagramQueue& dgrams) {
    Flush(peer, dgrams);
  });
}

}  // namespace celect::net
