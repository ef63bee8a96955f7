// Systematic interleaving exploration (stateless model checking) for
// small configurations.
//
// The paper's correctness lemmas quantify over *every* asynchronous
// message ordering; a seeded simulation executes one, and the chaos
// harness samples. The Explorer closes the gap for small N: it drives
// the Runtime through a controlled scheduler (RuntimeOptions::
// controller) and enumerates, by depth-first search, every maximal
// ordering of message deliveries, wakeups, timers and crashes — subject
// only to per-link FIFO — re-executing from the initial state down each
// branch (deterministic factories make replays exact).
//
// Pruning is sleep-set DPOR: two events commute exactly when they
// target different nodes (a handler touches only its own node's state;
// queue appends and metrics are commutative), so after fully exploring
// a branch that dispatched event e, sibling branches put e to sleep
// until some event dependent with it (same target node) runs. This
// visits every Mazurkiewicz trace once instead of every interleaving.
//
// A schedule is a choice string — the index picked at each branch
// point, rendered "2.0.1" — and any violating schedule is emitted as
// one, minimised greedily, and replayable bit-for-bit with
// ReplaySchedule (same factory + config ⇒ identical RunResult; pair
// with harness::FingerprintResult to assert it).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "celect/analysis/invariants.h"
#include "celect/sim/network.h"
#include "celect/sim/process.h"
#include "celect/sim/runtime.h"

namespace celect::analysis {

// Builds a fresh NetworkConfig per execution. Must be deterministic:
// every call describes the identical network (fixed seed) or replays
// diverge and the explorer CHECK-fails.
using ConfigFactory = std::function<sim::NetworkConfig()>;

struct ExplorerOptions {
  // Execution budget: maximal schedules to run before giving up (the
  // result is then marked budget_exhausted, not a proof).
  std::uint64_t max_schedules = 1'000'000;
  // Invariants checked on every execution. quiescence_termination and
  // leader_is_max_id are worth enabling for fault-free all-base
  // configs — that is where the paper guarantees them.
  InvariantOptions invariants;
};

struct ExploreStats {
  std::uint64_t schedules = 0;       // complete maximal schedules executed
  std::uint64_t events = 0;          // events dispatched across all runs
  std::uint64_t branch_points = 0;   // distinct states with >1 enabled event
  std::uint64_t sleep_pruned = 0;    // branches skipped by sleep sets
  std::uint64_t max_enabled = 0;     // widest enabled set seen
  bool budget_exhausted = false;     // stopped at max_schedules
};

struct Counterexample {
  std::vector<std::uint32_t> choices;
  std::string schedule;              // ScheduleToString(choices)
  std::vector<std::string> violations;
};

struct ExploreResult {
  ExploreStats stats;
  std::optional<Counterexample> counterexample;
  bool ok() const { return !counterexample.has_value(); }
};

// Exhaustively explores the protocol under every schedule of the given
// configuration (up to the budget), stopping at the first violating
// schedule. Clean result + !budget_exhausted is a proof of the enabled
// invariants for this configuration.
ExploreResult Explore(const sim::ProcessFactory& factory,
                      const ConfigFactory& config,
                      const ExplorerOptions& opt = {});

// Replays a choice string deterministically: choice i is taken at step
// i (clamped to the enabled range; missing choices default to 0, the
// lowest-sequence enabled event). Any string is therefore a valid
// schedule, and equal (factory, config, choices) triples produce
// bit-identical RunResults.
struct ReplayOutcome {
  sim::RunResult result;
  std::vector<std::string> violations;
};
ReplayOutcome ReplaySchedule(const sim::ProcessFactory& factory,
                             const ConfigFactory& config,
                             const std::vector<std::uint32_t>& choices,
                             const InvariantOptions& invariants = {});

// ReplaySchedule with tracing on: same deterministic replay, plus the
// full trace record stream — the bridge from a shrunk counterexample to
// a Perfetto timeline (obs::WriteChromeTrace) or the trace inspector's
// causal-chain view.
struct TracedReplayOutcome {
  sim::RunResult result;
  std::vector<sim::TraceRecord> records;
  std::vector<std::string> violations;
};
TracedReplayOutcome ReplayScheduleTraced(
    const sim::ProcessFactory& factory, const ConfigFactory& config,
    const std::vector<std::uint32_t>& choices,
    const InvariantOptions& invariants = {});

// "2.0.1" <-> {2, 0, 1}; the empty vector renders "" and parses back.
std::string ScheduleToString(const std::vector<std::uint32_t>& choices);
std::vector<std::uint32_t> ScheduleFromString(const std::string& s);

}  // namespace celect::analysis
