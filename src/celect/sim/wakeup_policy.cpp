#include "celect/sim/wakeup_policy.h"

#include "celect/util/check.h"

namespace celect::sim {

namespace {

bool Alive(const std::vector<bool>& failed, NodeId node) {
  return failed.empty() || !failed[node];
}

}  // namespace

// The plans grow their vector one emplace at a time rather than
// reserving: harness::BuildNetwork builds every run's plan here, inside
// the setup span perfbench times, and keeps that allocation pattern.

WakeupPlan WakeAllAtZero(std::uint32_t n, const std::vector<bool>& failed) {
  WakeupPlan plan;
  for (NodeId i = 0; i < n; ++i) {
    if (Alive(failed, i)) plan.wakeups.emplace_back(i, Time::Zero());
  }
  return plan;
}

WakeupPlan WakeSingle(std::uint32_t n, NodeId node,
                      const std::vector<bool>& failed) {
  CELECT_CHECK(node < n && Alive(failed, node));
  WakeupPlan plan;
  plan.wakeups.emplace_back(node, Time::Zero());
  return plan;
}

WakeupPlan WakeRandomSubset(std::uint32_t n, std::uint32_t count,
                            double window, Rng& rng,
                            const std::vector<bool>& failed) {
  CELECT_CHECK(count >= 1 && count <= n);
  const std::vector<std::uint32_t> perm = rng.Permutation(n);
  WakeupPlan plan;
  for (NodeId node : perm) {
    if (!Alive(failed, node)) continue;
    const Time at = window <= 0.0
                        ? Time::Zero()
                        : Time::FromDouble(window * rng.NextDouble());
    plan.wakeups.emplace_back(node, at);
    if (plan.wakeups.size() == count) break;
  }
  CELECT_CHECK(plan.wakeups.size() == count) << "no live base node available";
  return plan;
}

WakeupPlan WakeStaggeredChain(std::uint32_t n, double spacing,
                              const std::vector<bool>& failed) {
  WakeupPlan plan;
  for (NodeId i = 0; i < n; ++i) {
    if (Alive(failed, i)) {
      plan.wakeups.emplace_back(i, Time::FromDouble(spacing * i));
    }
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
