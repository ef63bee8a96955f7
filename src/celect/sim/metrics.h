// Run accounting: message counts, bytes on the wire, per-type breakdown,
// leader declarations and fault-injection tallies as fixed fields, plus
// one obs::MetricsRegistry for everything named.
//
// The registry holds the protocols' counters (recorded by NodeCore) and
// the per-cause tallies under their final names — sim.dropped_to_*,
// sim.rejoins, sim.latency_saturated, lease.<event>, invariant.<kind>.
// Each appears only once recorded, so fingerprints of runs without
// drops, rejoins, leases or violations are untouched.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "celect/obs/telemetry.h"
#include "celect/sim/time.h"
#include "celect/sim/types.h"

namespace celect::sim {

// Why a sent message never reached its process. Split so fault-injection
// runs can tell "ate by a dead node" from "injected link loss".
enum class DropCause {
  kCrashedDestination,  // destination failed initially or crashed mid-run
  kInjectedLoss,        // FaultPlan link loss
};

class Metrics {
 public:
  Metrics();

  // The send/delivery tallies run once per simulated message — inline so
  // the hot loop pays two increments, not a call.
  void RecordSend(std::uint16_t type, std::size_t bytes) {
    ++messages_sent_;
    bytes_sent_ += bytes;
    if (type >= by_type_.size()) by_type_.resize(type + 1, 0);
    ++by_type_[type];
  }
  void RecordDelivery() { ++messages_delivered_; }
  void RecordDrop(DropCause cause);
  void RecordDuplicate();
  void RecordReorder();
  void RecordCrash();
  void RecordRejoin();
  // Per-cause lease lifecycle tally: lease.granted / renewed / expired /
  // revoked.
  void RecordLeaseEvent(LeaseEvent event);
  void RecordTimerSet();
  void RecordTimerFired();
  void RecordTimerCancelled();
  // A DeliveryEvent's 32-bit latency field clipped at its ceiling — the
  // telemetry histogram under-reports that delivery. Counted as
  // sim.latency_saturated so saturation is loud instead of silent.
  void RecordLatencySaturated();
  void RecordLeader(NodeId node, Id id, Time at);
  // Per-cause invariant-violation tally (analysis/invariants.h kinds,
  // e.g. "multiple_leaders"), counted as invariant.<kind>.
  void RecordInvariantViolation(const std::string& kind);
  // Host wall-clock spent inside Runtime::Run, recorded once at the end
  // of the run. Non-deterministic by nature: excluded from result
  // fingerprints, reported for throughput (events/sec) accounting only.
  void RecordWallClock(std::uint64_t ns, std::uint64_t events);

  // Named counters; NodeCore records the protocols' counters here.
  obs::MetricsRegistry& registry() { return registry_; }
  const obs::MetricsRegistry& registry() const { return registry_; }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }
  // Total drops, all causes.
  std::uint64_t messages_dropped() const {
    return static_cast<std::uint64_t>(
        registry_.counter(tally_slots_[kDroppedToCrashed]) +
        registry_.counter(tally_slots_[kDroppedToLoss]));
  }
  std::uint64_t dropped_to_loss() const {
    return static_cast<std::uint64_t>(
        registry_.counter(tally_slots_[kDroppedToLoss]));
  }
  std::uint64_t messages_duplicated() const { return messages_duplicated_; }
  std::uint64_t messages_reordered() const { return messages_reordered_; }
  std::uint64_t crashes_injected() const { return crashes_injected_; }
  std::uint64_t timers_set() const { return timers_set_; }
  std::uint64_t timers_fired() const { return timers_fired_; }
  std::uint64_t timers_cancelled() const { return timers_cancelled_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  // Per-type send counts, materialised from the flat tally.
  std::map<std::uint16_t, std::uint64_t> by_type() const;
  std::uint64_t invariant_violations() const {
    return invariant_violations_total_;
  }

  std::uint32_t leader_declarations() const { return leader_declarations_; }
  std::optional<NodeId> leader_node() const { return leader_node_; }
  std::optional<Id> leader_id() const { return leader_id_; }
  Time first_leader_time() const { return first_leader_time_; }
  std::uint64_t wall_ns() const { return wall_ns_; }
  double events_per_sec() const { return events_per_sec_; }

 private:
  // The named tallies (lease events in LeaseEvent order). Each is
  // interned into the registry on its first record, so building a
  // Metrics allocates nothing.
  enum Tally : std::uint8_t {
    kDroppedToCrashed,
    kDroppedToLoss,
    kRejoins,
    kLatencySaturated,
    kLeaseEvents,
    kTallyCount = kLeaseEvents + kLeaseEventCount,
  };
  void Record(Tally t);

  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_duplicated_ = 0;
  std::uint64_t messages_reordered_ = 0;
  std::uint64_t crashes_injected_ = 0;
  std::uint64_t timers_set_ = 0;
  std::uint64_t timers_fired_ = 0;
  std::uint64_t timers_cancelled_ = 0;
  std::uint64_t bytes_sent_ = 0;
  // Flat per-type send tally, grown on demand (packet types are small
  // dense enums). One indexed add per send instead of a map walk.
  std::vector<std::uint64_t> by_type_;
  obs::MetricsRegistry registry_;
  // Registry slot of each tally; kNoSlot until its first record.
  std::uint32_t tally_slots_[kTallyCount];
  std::uint64_t invariant_violations_total_ = 0;
  std::uint32_t leader_declarations_ = 0;
  std::optional<NodeId> leader_node_;
  std::optional<Id> leader_id_;
  Time first_leader_time_ = Time::Zero();
  std::uint64_t wall_ns_ = 0;
  double events_per_sec_ = 0.0;
};

}  // namespace celect::sim
