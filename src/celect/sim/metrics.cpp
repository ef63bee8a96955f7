#include "celect/sim/metrics.h"

#include <algorithm>
#include <iterator>
#include <string_view>

namespace celect::sim {

namespace {

// Registry names of the tallies, in Metrics::Tally order.
constexpr std::string_view kTallyNames[] = {
    "sim.dropped_to_crashed", "sim.dropped_to_loss", "sim.rejoins",
    "sim.latency_saturated",  "lease.granted",       "lease.renewed",
    "lease.expired",          "lease.revoked",
};
static_assert(std::size(kTallyNames) == 4 + kLeaseEventCount);

}  // namespace

Metrics::Metrics() {
  std::fill(std::begin(tally_slots_), std::end(tally_slots_),
            obs::MetricsRegistry::kNoSlot);
}

void Metrics::Record(Tally t) {
  std::uint32_t& s = tally_slots_[t];
  if (s == obs::MetricsRegistry::kNoSlot) {
    s = registry_.InternCounter(kTallyNames[t]);
  }
  registry_.AddCounter(s, 1);
}

void Metrics::RecordDrop(DropCause cause) {
  Record(cause == DropCause::kCrashedDestination ? kDroppedToCrashed
                                                 : kDroppedToLoss);
}

void Metrics::RecordDuplicate() { ++messages_duplicated_; }

void Metrics::RecordReorder() { ++messages_reordered_; }

void Metrics::RecordCrash() { ++crashes_injected_; }

void Metrics::RecordRejoin() { Record(kRejoins); }

void Metrics::RecordLeaseEvent(LeaseEvent event) {
  Record(static_cast<Tally>(kLeaseEvents + static_cast<int>(event)));
}

void Metrics::RecordTimerSet() { ++timers_set_; }

void Metrics::RecordTimerFired() { ++timers_fired_; }

void Metrics::RecordTimerCancelled() { ++timers_cancelled_; }

void Metrics::RecordLatencySaturated() { Record(kLatencySaturated); }

void Metrics::RecordLeader(NodeId node, Id id, Time at) {
  if (leader_declarations_ == 0) {
    leader_node_ = node;
    leader_id_ = id;
    first_leader_time_ = at;
  }
  ++leader_declarations_;
}

void Metrics::RecordInvariantViolation(const std::string& kind) {
  ++invariant_violations_total_;
  registry_.AddCounter("invariant." + kind, 1);
}

void Metrics::RecordWallClock(std::uint64_t ns, std::uint64_t events) {
  wall_ns_ = ns;
  events_per_sec_ =
      ns > 0 ? static_cast<double>(events) * 1e9 / static_cast<double>(ns)
             : 0.0;
}

std::map<std::uint16_t, std::uint64_t> Metrics::by_type() const {
  std::map<std::uint16_t, std::uint64_t> out;
  for (std::size_t t = 0; t < by_type_.size(); ++t) {
    if (by_type_[t] > 0) out.emplace(static_cast<std::uint16_t>(t),
                                     by_type_[t]);
  }
  return out;
}

}  // namespace celect::sim
