#include "celect/sim/network.h"

#include <algorithm>

#include "celect/util/check.h"

namespace celect::sim {

std::vector<Id> IdentitiesAscending(std::uint32_t n) {
  std::vector<Id> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) ids[i] = static_cast<Id>(i) + 1;
  return ids;
}

std::vector<Id> IdentitiesRandom(std::uint32_t n, Rng& rng) {
  auto ids = IdentitiesAscending(n);
  rng.Shuffle(ids);
  return ids;
}

std::vector<Id> IdentitiesSparse(std::uint32_t n, Rng& rng) {
  // Strictly increasing random gaps, then shuffled across addresses.
  std::vector<Id> ids(n);
  Id cur = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    cur += 1 + static_cast<Id>(rng.NextBelow(1000));
    ids[i] = cur;
  }
  rng.Shuffle(ids);
  return ids;
}

void ValidateConfig(const NetworkConfig& config) {
  CELECT_CHECK(config.n >= 2);
  CELECT_CHECK(config.mapper != nullptr);
  CELECT_CHECK(config.mapper->n() == config.n);
  CELECT_CHECK(config.delays != nullptr);
  if (!config.identities.empty()) {
    CELECT_CHECK(config.identities.size() == config.n);
    std::vector<Id> sorted = config.identities;
    std::sort(sorted.begin(), sorted.end());
    const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
    CELECT_CHECK(dup == sorted.end()) << "duplicate identity " << *dup;
  }
  if (!config.failed.empty()) {
    CELECT_CHECK(config.failed.size() == config.n);
  }
  CELECT_CHECK(!config.wakeup.wakeups.empty())
      << "at least one base node must wake up";
  for (const auto& [node, at] : config.wakeup.wakeups) {
    CELECT_CHECK(node < config.n);
    CELECT_CHECK(at >= Time::Zero());
    if (!config.failed.empty()) {
      // Only *initial* failures are barred from the base set; a FaultPlan
      // may crash a base node mid-run (it wakes, runs, then dies).
      CELECT_CHECK(!config.failed[node])
          << "initially-failed node " << node << " cannot be a base node";
    }
  }
  ValidateFaultPlan(config.faults, config.n);
}

}  // namespace celect::sim
