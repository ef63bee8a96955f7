#include "celect/net/fake_link.h"

namespace celect::net {

FakeLink::FakeLink(const FakeLinkParams& params, std::uint64_t seed)
    : params_(&params), rng_(SplitMix64(seed).Next()) {}

Micros FakeLink::Delay() {
  Micros delay = params_->delay_min;
  if (params_->delay_max > params_->delay_min) {
    delay += rng_.NextBelow(params_->delay_max - params_->delay_min + 1);
  }
  if (params_->reorder > 0 && rng_.NextDouble() < params_->reorder) {
    delay += params_->reorder_extra;
  }
  return delay;
}

void FakeLink::Corrupt(std::span<std::uint8_t> bytes) {
  if (params_->corrupt > 0 && rng_.NextDouble() < params_->corrupt &&
      !bytes.empty()) {
    std::uint64_t flips = 1 + rng_.NextBelow(4);
    for (std::uint64_t i = 0; i < flips; ++i) {
      std::uint64_t bit = rng_.NextBelow(bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
}

}  // namespace celect::net
