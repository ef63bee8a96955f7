#include "celect/net/fake_link.h"

namespace celect::net {

FakeLink::FakeLink(const FakeLinkParams& params)
    : params_(params), rng_(SplitMix64(params.seed).Next()) {}

void FakeLink::Enqueue(std::vector<std::uint8_t> bytes, Micros now) {
  Micros delay = params_.delay_min;
  if (params_.delay_max > params_.delay_min) {
    delay += rng_.NextBelow(params_.delay_max - params_.delay_min + 1);
  }
  if (params_.reorder > 0 && rng_.NextDouble() < params_.reorder) {
    delay += params_.reorder_extra;
  }
  if (params_.corrupt > 0 && rng_.NextDouble() < params_.corrupt &&
      !bytes.empty()) {
    std::uint64_t flips = 1 + rng_.NextBelow(4);
    for (std::uint64_t i = 0; i < flips; ++i) {
      std::uint64_t bit = rng_.NextBelow(bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
  in_flight_.insert(InFlight{now + delay, order_++, std::move(bytes)});
}

void FakeLink::Send(const std::vector<std::uint8_t>& dgram, Micros now) {
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
  return in_flight_.begin()->at;
}

void FakeLink::DeliverDue(Micros now,
                          std::vector<std::vector<std::uint8_t>>& out) {
  while (!in_flight_.empty() && in_flight_.begin()->at <= now) {
    auto node = in_flight_.extract(in_flight_.begin());
    out.push_back(std::move(node.value().bytes));
    ++delivered_;
  }
}

}  // namespace celect::net
