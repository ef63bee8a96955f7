// Availability accounting for the continuous election service.
//
// The InvariantRegistry checks the *instant* safety claim (at most one
// unexpired lease, its lease_overlap check). This observer measures the
// complementary liveness side of a churn run:
//
//   unavailability   exact tick-count of the service window [0, horizon)
//                    during which no live node held an unexpired lease.
//                    Coverage is integrated between events from cached
//                    claims: a claim observed at time t covers [t, D]
//                    until the holder drops it (step-down truncates at
//                    the drop instant) or crashes (truncates at the
//                    crash instant);
//
//   election latency a histogram (obs::Histogram, tick-valued) of
//                    gap lengths: from the instant coverage lapsed to
//                    the instant a new unexpired claim appeared. One
//                    sample per closed gap — the re-election storm's
//                    p50/p99 come straight from here;
//
//   reelection_overdue  the bounded-window liveness invariant: every
//                    coverage gap that starts early enough for a full
//                    re-election window to fit inside the horizon must
//                    close within `reelection_window`. Gaps that start
//                    too close to (or past) the horizon are exempt —
//                    the engine deliberately stops nominating there, so
//                    the final lapse is the shutdown, not a bug;
//
//   lease timeline   a capped list of {node, term, granted_at,
//                    last_deadline, dropped_at} segments, for demos and
//                    debugging (examples/churn_demo.cpp prints it).
//
// Violations are recorded like the registry's: human-readable strings
// (capped) plus a Metrics tally surfacing as
// counters["invariant.reelection_overdue"]. An optional chained
// observer lets the monitor stack with an InvariantRegistry on the
// single RuntimeOptions::observer slot.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "celect/obs/telemetry.h"
#include "celect/sim/hooks.h"
#include "celect/sim/time.h"

namespace celect::analysis {

inline constexpr char kInvReelectionOverdue[] = "reelection_overdue";

struct LeaseMonitorOptions {
  // Service window end; unavailability is integrated over [0, horizon)
  // and gaps starting at or after horizon - reelection_window are exempt
  // from the overdue check. Match LeaseParams::horizon.
  sim::Time horizon = sim::Time::FromUnits(60);
  // Bounded re-election window: a coverage gap open longer than this
  // (and not horizon-exempt) is a liveness violation. Zero disables the
  // check (unavailability and latency are still measured).
  sim::Time reelection_window = sim::Time::Zero();
  // Timeline segment cap; past it segments are dropped (counters and
  // histograms keep accumulating).
  std::size_t max_timeline = 256;
  // Optional downstream observer (e.g. an InvariantRegistry), invoked
  // after the monitor's own processing. Not owned; may be null.
  sim::RunObserver* chained = nullptr;
};

class LeaseMonitor : public sim::RunObserver {
 public:
  // One holder's reign, as observed: granted_at is the first event at
  // which the claim was visible, last_deadline the furthest deadline it
  // reached, dropped_at the event at which the claim disappeared
  // (step-down, crash, or expiry noticed) — Time::Max() while open.
  struct Segment {
    sim::NodeId node = 0;
    std::int64_t term = 0;
    sim::Time granted_at;
    sim::Time last_deadline;
    sim::Time dropped_at = sim::Time::Max();
  };

  explicit LeaseMonitor(LeaseMonitorOptions opt = {}) : opt_(opt) {}

  void AfterEvent(sim::NodeId target, const sim::RunInspect& in) override;
  void AtQuiescence(const sim::RunInspect& in) override;

  // Ticks of [0, horizon) with no unexpired lease held by a live node.
  std::int64_t unavailable_ticks() const { return unavailable_ticks_; }
  // Gap lengths in ticks; count() is the number of closed gaps (i.e.
  // completed re-elections that restored service).
  const obs::Histogram& election_latency() const { return election_latency_; }
  const std::vector<Segment>& timeline() const { return timeline_; }
  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  std::string Summary() const;

 private:
  void Violate(const sim::RunInspect& in, std::string what);
  // Integrates coverage over [last_now_, now) and advances last_now_.
  void Integrate(const sim::RunInspect& in, sim::Time now);
  // Re-publishes the target's claim into the caches; `now` stamps
  // truncations and segment boundaries.
  void ObserveTarget(sim::NodeId target, const sim::RunInspect& in);
  void CloseSegment(sim::NodeId node, sim::Time at);
  // Sets a node's cover-until tick, keeping cover_max_ current.
  void SetCover(sim::NodeId node, std::int64_t until);
  // Largest cover-until tick over current claimants, or -1 if none.
  // Exact whenever it is >= last_now_; below that, every caller treats
  // all values alike, so nodes whose cover fell behind last_now_ are
  // pruned rather than kept in the maximum.
  std::int64_t CoverMax();

  // Per-node state, indexed by NodeId and sized from RunInspect::n on
  // the first event.
  struct NodeState {
    // Cover-until tick: the claim's deadline, truncated to the
    // drop/crash instant when the holder goes away; -1 if never claimed.
    std::int64_t cover = -1;
    // Claimed term, to split timeline segments across terms.
    std::optional<std::int64_t> term;
    // Open timeline segment (index into timeline_), if any.
    std::optional<std::size_t> open_segment;
    // Listed in covering_.
    bool covering = false;
  };

  LeaseMonitorOptions opt_;
  std::vector<std::string> violations_;
  std::vector<NodeState> nodes_;
  // Nodes whose cover may still reach last_now_: the only candidates
  // for CoverMax(). Pruned when the maximum has to be recomputed.
  std::vector<sim::NodeId> covering_;
  std::int64_t cover_max_ = -1;
  // Set when the node holding cover_max_ lowered its cover.
  bool cover_max_stale_ = false;
  std::vector<Segment> timeline_;
  std::int64_t last_now_ = 0;        // integration frontier (ticks)
  std::int64_t unavailable_ticks_ = 0;
  bool gap_open_ = true;             // service starts leaderless
  std::int64_t gap_start_ = 0;       // tick the open gap began
  bool overdue_reported_ = false;    // per-gap overdue latch
  obs::Histogram election_latency_;
};

}  // namespace celect::analysis
