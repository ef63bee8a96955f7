// Runtime extension points for analysis tooling.
//
// Two hooks, both optional and both inert on the simulator's default
// path:
//
//   ScheduleController — controlled scheduling. When set, the runtime
//     abandons time order and asks the controller which of the currently
//     *enabled* pending events to dispatch next (asynchronous semantics:
//     any in-flight message may arrive next, subject only to per-link
//     FIFO). The analysis explorer uses this to enumerate message
//     interleavings.
//
//   RunObserver — invariant checking. Called after every dispatched
//     event and once at quiescence with a read-mostly window into the
//     run; the analysis InvariantRegistry implements it.
//
// Both live here (sim layer) so Runtime needs no knowledge of the
// analysis layer that implements them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "celect/sim/event.h"
#include "celect/sim/metrics.h"
#include "celect/sim/process.h"
#include "celect/sim/time.h"
#include "celect/sim/types.h"

namespace celect::sim {

// The node an event acts on: the dispatching handler's node, or the
// target of a drop/crash. Event order is exchangeable exactly when the
// targets differ — the commutativity rule the explorer prunes with.
NodeId EventTarget(const EventBody& body);

class ScheduleController {
 public:
  virtual ~ScheduleController() = default;

  // Picks the next event to dispatch. `enabled` is sorted by sequence
  // number and non-empty; the choice string of a run is the sequence of
  // returned indices. Returning nullopt aborts the run (the explorer
  // uses this to cut off pruned branches).
  virtual std::optional<std::size_t> ChooseNext(
      const std::vector<const Event*>& enabled) = 0;
};

// Read-mostly window into a run handed to observers. Metrics is mutable
// so observers can record violation tallies next to the run's other
// accounting; everything else is immutable.
struct RunInspect {
  std::uint32_t n = 0;
  const std::vector<Id>* ids = nullptr;
  const std::vector<bool>* failed = nullptr;
  // n entries; processes()[addr] is the protocol instance at addr.
  const std::unique_ptr<Process>* processes = nullptr;
  Metrics* metrics = nullptr;
  Time now;
  // DeliveryEvents currently pending in the queue (sent but neither
  // delivered nor dropped) — closes the message-conservation ledger.
  std::uint64_t deliveries_inflight = 0;

  const Process& process(NodeId addr) const { return *processes[addr]; }

  // process(addr).Observe(), built on the first call and kept: every
  // observer on an event (a LeaseMonitor and its chained registry)
  // shares one snapshot. The runtime hands observers a fresh RunInspect
  // per event, so the snapshot never outlives the event it describes.
  // The reference is valid until Observed() is asked for another node.
  const ProtocolObservables& Observed(NodeId addr) const {
    if (!observed_ || observed_node_ != addr) {
      observed_.emplace(process(addr).Observe());
      observed_node_ = addr;
    }
    return *observed_;
  }

 private:
  mutable std::optional<ProtocolObservables> observed_;
  mutable NodeId observed_node_ = 0;
};

class RunObserver {
 public:
  virtual ~RunObserver() = default;

  // After every dispatched event; `target` is the event's node (see
  // EventTarget). Also called for swallowed events (drops, stale
  // timers) — their accounting is part of what observers check.
  virtual void AfterEvent(NodeId target, const RunInspect& in) = 0;

  // Once, when the queue drains. Not called if the run is aborted by a
  // ScheduleController or the event budget.
  virtual void AtQuiescence(const RunInspect& in) = 0;
};

}  // namespace celect::sim
