// Churn workload: the continuous election service under sustained
// crash/rejoin cycling.
//
// MakeChurnPlan derives a seeded FaultPlan in which a subset of nodes
// cycles crash → rejoin → crash ... for the whole service window
// (strictly alternating per node, all times distinct — exactly the
// shape ValidateFaultPlan admits). RunChurnCase runs the lease engine
// under that plan with the full analysis stack attached:
//
//   * analysis::LeaseMonitor — unavailability ticks, election-latency
//     histogram, bounded-window re-election check;
//   * analysis::InvariantRegistry (chained) — at most one unexpired
//     lease at every instant, monotone terms across rejoins, message
//     conservation.
//
// Everything derives from one 64-bit seed and is bit-reproducible:
// SweepChurn fans cases over a worker pool and reduces in seed order,
// so totals, merged histograms, and the violation list are identical
// for any thread count (tests assert fingerprint equality).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "celect/harness/chaos.h"
#include "celect/harness/experiment.h"
#include "celect/obs/telemetry.h"
#include "celect/proto/nosod/lease_engine.h"
#include "celect/sim/fault.h"
#include "celect/util/stats.h"

namespace celect::harness {

struct ChurnOptions {
  std::uint32_t n = 16;
  // Lease-layer parameters (horizon bounds the service window; the
  // churn schedule stops cycling there too).
  proto::nosod::LeaseParams lease;
  // Nodes cycling crash/rejoin (distinct victims, drawn per seed; keep
  // below n/2 so an acquisition quorum of live nodes always exists).
  std::uint32_t churn_nodes = 2;
  // Link degradation rates handed to the FaultPlan.
  double loss = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  MapperKind mapper = MapperKind::kRandom;
  DelayKind delay = DelayKind::kRandom;
  std::uint64_t max_events = 500'000'000;
  // Bounded re-election window for the overdue check. Zero derives a
  // generous bound from the lease parameters: a crashed holder's lease
  // must run out (lease_duration) before followers may re-elect, then
  // two staggered watchdog periods plus the election itself.
  sim::Time reelection_window = sim::Time::Zero();
  // Worker threads for SweepChurn (0 = one per hardware thread).
  std::uint32_t threads = 1;
  // Collect per-run obs::Telemetry; the election-latency histogram from
  // the LeaseMonitor is always merged into the case's telemetry.
  bool enable_telemetry = false;
};

// The auto-derived overdue bound used when reelection_window is zero.
sim::Time DefaultReelectionWindow(const proto::nosod::LeaseParams& lease);

// The lease parameters RunChurnCase actually uses: when lease.f is zero
// (plain protocol G inside — which stalls if a capture lands on a dead
// node), derives a failure budget covering the concurrently-dead set.
proto::nosod::LeaseParams EffectiveLeaseParams(const ChurnOptions& opt);

// Seeded churn schedule: distinct victims, per-victim alternating
// crash/rejoin timelines from two units in (so the first election
// settles) to the horizon, with up phases of six units and down phases
// of three on average, plus the link rates from `opt`. Deterministic:
// same (seed, opt) -> same plan.
sim::FaultPlan MakeChurnPlan(std::uint64_t seed, const ChurnOptions& opt);

struct ChurnCaseResult {
  std::uint64_t seed = 0;
  sim::FaultPlan plan;
  sim::RunResult result;
  std::vector<bool> failed_after;
  // Ticks of [0, horizon) with no live, unexpired lease holder.
  std::int64_t unavailable_ticks = 0;
  // Completed re-elections (closed coverage gaps, including the first
  // election from the leaderless start).
  std::uint64_t elections_completed = 0;
  // Gap lengths in ticks (one sample per completed re-election).
  obs::Histogram election_latency;
  // Empty when every invariant held; otherwise a human-readable verdict.
  std::string violation;
};

// Runs one seeded churn case to quiescence under the full checker stack.
ChurnCaseResult RunChurnCase(std::uint64_t seed, const ChurnOptions& opt);

struct ChurnSweepResult {
  std::uint32_t cases = 0;
  std::uint64_t crashes_injected = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t elections_completed = 0;
  std::int64_t unavailable_ticks = 0;
  // Lease lifecycle totals (sim::Metrics per-cause counters, summed).
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_renewed = 0;
  std::uint64_t leases_expired = 0;
  std::uint64_t leases_revoked = 0;
  // Per-case message totals / quiesce times, reduced in seed order.
  Summary messages;
  Summary time;
  std::uint64_t wall_ns = 0;
  std::uint64_t events_processed = 0;
  // Merged per-case telemetry (election_latency always populated).
  obs::Telemetry telemetry;
  std::vector<ChurnCaseResult> violations;
};

// Sweeps seeds [seed0, seed0 + count) through RunChurnCase.
ChurnSweepResult SweepChurn(std::uint64_t seed0, std::uint32_t count,
                            const ChurnOptions& opt);

// One-line render for logs: availability + lease counters + verdict.
std::string Describe(const ChurnCaseResult& c);

}  // namespace celect::harness
