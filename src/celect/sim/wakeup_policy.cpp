#include "celect/sim/wakeup_policy.h"

#include <algorithm>

#include "celect/util/check.h"

namespace celect::sim {

Time WakeupPlan::LastWakeup() const {
  Time last = Time::Zero();
  for (const auto& [node, at] : wakeups) last = std::max(last, at);
  return last;
}

WakeupPlan WakeAllAtZero(std::uint32_t n) {
  WakeupPlan plan;
  plan.wakeups.reserve(n);
  for (NodeId i = 0; i < n; ++i) plan.wakeups.emplace_back(i, Time::Zero());
  return plan;
}

WakeupPlan WakeSingle(std::uint32_t n, NodeId node) {
  CELECT_CHECK(node < n);
  WakeupPlan plan;
  plan.wakeups.emplace_back(node, Time::Zero());
  return plan;
}

WakeupPlan WakeRandomSubset(std::uint32_t n, std::uint32_t count,
                            Time window, Rng& rng) {
  CELECT_CHECK(count >= 1 && count <= n);
  auto perm = rng.Permutation(n);
  WakeupPlan plan;
  plan.wakeups.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Time at = window == Time::Zero()
                  ? Time::Zero()
                  : Time::FromTicks(static_cast<std::int64_t>(
                        rng.NextBelow(window.ticks() + 1)));
    plan.wakeups.emplace_back(perm[i], at);
  }
  return plan;
}

WakeupPlan WakeStaggeredChain(std::uint32_t n, Time spacing) {
  WakeupPlan plan;
  plan.wakeups.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    plan.wakeups.emplace_back(i, spacing * static_cast<std::int64_t>(i));
  }
  return plan;
}

WakeupPlan WakeEveryKth(std::uint32_t n, std::uint32_t stride) {
  CELECT_CHECK(stride >= 1 && stride <= n);
  WakeupPlan plan;
  plan.wakeups.reserve(n / stride);
  for (NodeId i = 0; i < n; i += stride) {
    plan.wakeups.emplace_back(i, Time::Zero());
  }
  return plan;
}

}  // namespace celect::sim
