// Optional event trace for debugging, for tests that assert ordering
// properties (per-link FIFO, happens-before of protocol rounds), and as
// the source for the Perfetto/Chrome trace export (obs/trace_export.h).
//
// Every record carries causal metadata: the acting node's Lamport clock
// (ticked on sends, deliveries, wakeups and timer fires; a delivery
// joins the sender's clock with max+1), a message uid `mid` pairing each
// kSend with its kDeliver/kDrop/kLoss/kDuplicate outcomes (timer records
// reuse the field for the timer id), and the acting node's protocol
// phase at record time (Context::BeginPhase/EndPhase).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "celect/obs/phase.h"
#include "celect/sim/time.h"
#include "celect/sim/types.h"

namespace celect::sim {

struct TraceRecord {
  enum class Kind {
    kSend,
    kDeliver,
    kWakeup,
    kLeader,
    kCrash,        // node crashed mid-run (fault injection)
    kRejoin,       // crashed node revived with a fresh process (churn)
    kDrop,         // delivery swallowed by a crashed/failed destination
    kLoss,         // injected link loss
    kDuplicate,    // injected duplicate delivery scheduled
    kTimerSet,     // node armed a timer
    kTimerFire,    // timer fired at node
    kTimerCancel,  // node cancelled a live timer
    kPhaseBegin,   // protocol opened a phase span
    kPhaseEnd,     // protocol closed a phase span
  };
  Kind kind;
  Time at;
  NodeId node;           // acting node
  NodeId peer;           // other endpoint for send/deliver
  Port port;             // local port at `node`
  std::uint16_t type;    // packet type
  std::uint64_t seq;     // global monotone sequence
  // Lamport clock of `node` after the event (0 before any clocked
  // event touched the node).
  std::uint64_t clock = 0;
  // Message uid: pairs a send with every arrival/loss outcome of that
  // message (duplicates share the original's uid). Timer records carry
  // the TimerId here. 0 = not applicable.
  std::uint64_t mid = 0;
  // The acting node's protocol phase when the record was taken; the
  // span's phase for kPhaseBegin/kPhaseEnd.
  obs::PhaseId phase = obs::PhaseId::kNone;
  std::int64_t phase_level = 0;
  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

// Human-readable one-line label ("send", "tcxl", ...).
const char* ToString(TraceRecord::Kind kind);

class Trace {
 public:
  explicit Trace(bool enabled = false, std::size_t cap = 10'000'000)
      : enabled_(enabled), cap_(cap) {}

  bool enabled() const { return enabled_; }
  void Record(TraceRecord r);

  const std::vector<TraceRecord>& records() const { return records_; }
  bool truncated() const { return truncated_; }
  // Records discarded after the cap was hit. Runtime::Run surfaces this
  // as RunResult::counters["sim.trace_truncated"] and warn-logs once —
  // a capped trace must never silently masquerade as a complete one.
  std::uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_;
  std::size_t cap_;
  bool truncated_ = false;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<TraceRecord> records_;
};

}  // namespace celect::sim
