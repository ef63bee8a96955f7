#include "celect/sim/delay_model.h"

namespace celect::sim {

DelayDecision RandomDelayModel::Decide(const MessageInfo&) {
  double transit = rng_.NextPositiveDouble();
  double spacing = rng_.NextDouble();
  return {Time::FromDouble(transit), Time::FromDouble(spacing)};
}

std::unique_ptr<DelayModel> MakeUnitDelay() {
  return std::make_unique<UnitDelayModel>();
}

std::unique_ptr<DelayModel> MakeEagerDelay() {
  return std::make_unique<EagerDelayModel>();
}

std::unique_ptr<DelayModel> MakeRandomDelay(std::uint64_t seed) {
  return std::make_unique<RandomDelayModel>(seed);
}

}  // namespace celect::sim
