#include "celect/net/fake_link.h"

#include <algorithm>

namespace celect::net {

FakeLink::FakeLink(const FakeLinkParams& params, DatagramPool& pool)
    : params_(params), rng_(SplitMix64(params.seed).Next()), pool_(&pool) {}

void FakeLink::Enqueue(std::span<const std::uint8_t> dgram, Micros now) {
  Micros delay = params_.delay_min;
  if (params_.delay_max > params_.delay_min) {
    delay += rng_.NextBelow(params_.delay_max - params_.delay_min + 1);
  }
  if (params_.reorder > 0 && rng_.NextDouble() < params_.reorder) {
    delay += params_.reorder_extra;
  }
  const DatagramPool::Handle h = pool_->Store(dgram);
  if (params_.corrupt > 0 && rng_.NextDouble() < params_.corrupt &&
      !dgram.empty()) {
    std::span<std::uint8_t> bytes = pool_->bytes(h);
    std::uint64_t flips = 1 + rng_.NextBelow(4);
    for (std::uint64_t i = 0; i < flips; ++i) {
      std::uint64_t bit = rng_.NextBelow(bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
  in_flight_.push_back(InFlight{now + delay, order_++, h});
  std::push_heap(in_flight_.begin(), in_flight_.end(), Later);
}

void FakeLink::Send(std::span<const std::uint8_t> dgram, Micros now) {
  if (params_.loss > 0 && rng_.NextDouble() < params_.loss) {
    ++lost_;
    return;
  }
  bool dup = params_.duplicate > 0 && rng_.NextDouble() < params_.duplicate;
  Enqueue(dgram, now);
  if (dup) Enqueue(dgram, now);
}

std::optional<Micros> FakeLink::NextDelivery() const {
  if (in_flight_.empty()) return std::nullopt;
  return in_flight_.front().at;
}

void FakeLink::DeliverDue(Micros now,
                          std::vector<DatagramPool::Handle>& out) {
  while (!in_flight_.empty() && in_flight_.front().at <= now) {
    std::pop_heap(in_flight_.begin(), in_flight_.end(), Later);
    out.push_back(in_flight_.back().dgram);
    in_flight_.pop_back();
    ++delivered_;
  }
}

}  // namespace celect::net
