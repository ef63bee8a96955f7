// Deterministic chaos harness.
//
// Sweeps seeded fault plans — mid-run crashes at adversarial moments plus
// lossy links — across election runs and checks the invariants that must
// survive any schedule:
//
//   safety:   at most one leader declaration, ever;
//   liveness: exactly one declaration, by a node that is still alive at
//             quiescence (checked only when the plan stays within the
//             protocol's fault tolerance).
//
// Each case additionally runs under an analysis::InvariantRegistry
// (per-node monotone observables, message conservation) whose verdict is
// folded into the same violation string and per-cause counters.
//
// Everything is derived from a single 64-bit seed: the fault plan, the
// delay schedule, and the port permutations. The same seed and options
// always reproduce the same RunResult bit-for-bit (FingerprintResult
// asserts this in tests), so every violation the sweep finds comes with
// a one-integer repro.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "celect/harness/experiment.h"
#include "celect/obs/telemetry.h"
#include "celect/sim/fault.h"
#include "celect/util/stats.h"

namespace celect::harness {

struct ChaosOptions {
  std::uint32_t n = 16;
  // Crash victims per plan (distinct nodes; keep <= the protocol's f for
  // liveness checks). Triggers and parameters are drawn per seed.
  std::uint32_t max_crashes = 1;
  // Link degradation rates handed to the FaultPlan.
  double loss = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  MapperKind mapper = MapperKind::kRandom;
  DelayKind delay = DelayKind::kRandom;
  WakeupKind wakeup = WakeupKind::kAllAtZero;
  std::uint64_t max_events = 500'000'000;
  // Liveness checks. Disable require_leader for protocols pushed past
  // their fault tolerance (safety must still hold; a stalled, leaderless
  // quiescence is then acceptable).
  bool require_leader = true;
  bool require_live_leader = true;
  // Worker threads for SweepChaos / SweepRegistryChaos (0 = one per
  // hardware thread). Cases are independent seeded runs; the sweep
  // reduces them in seed order, so totals and the violation list are
  // identical for any thread count.
  std::uint32_t threads = 1;
  // Collect per-run obs::Telemetry (latency/queue-depth/capture-width
  // histograms); SweepChaos merges them in seed order.
  bool enable_telemetry = false;
};

// Derives the run's fault plan from the seed: distinct crash victims with
// early-firing triggers (absolute times in [0, 2) units, send/receive
// counts in [1, n], or a capture-phase message type), plus the link rates
// from `opt`. Deterministic: same (seed, opt) -> same plan.
sim::FaultPlan MakeChaosPlan(std::uint64_t seed, const ChaosOptions& opt);

struct ChaosCaseResult {
  std::uint64_t seed = 0;
  sim::FaultPlan plan;
  sim::RunResult result;
  // failed[address] at quiescence: initial failures + fired crashes.
  std::vector<bool> failed_after;
  // Empty when every invariant held; otherwise a human-readable verdict.
  std::string violation;
};

// Runs one seeded chaos case to quiescence and checks the invariants.
ChaosCaseResult RunChaosCase(const sim::ProcessFactory& factory,
                             std::uint64_t seed, const ChaosOptions& opt);

struct ChaosSweepResult {
  std::uint32_t cases = 0;
  std::uint64_t crashes_injected = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_reordered = 0;
  std::uint64_t timers_fired = 0;
  // Per-case message/time distributions, reduced in seed order (bench
  // JSON rows come from these).
  Summary messages;
  Summary time;
  // Host-side cost of the whole sweep (non-deterministic).
  std::uint64_t wall_ns = 0;
  std::uint64_t events_processed = 0;
  // Per-case telemetry merged in seed order (Empty() unless
  // ChaosOptions::enable_telemetry).
  obs::Telemetry telemetry;
  // Only the violating cases are kept (each carries its repro seed).
  std::vector<ChaosCaseResult> violations;
};

// Sweeps seeds [seed0, seed0 + count) through RunChaosCase.
ChaosSweepResult SweepChaos(const sim::ProcessFactory& factory,
                            std::uint64_t seed0, std::uint32_t count,
                            const ChaosOptions& opt);

// Safety-only sweep over every registered protocol (crashes + loss; no
// duplication — the paper's protocols assume non-duplicating links, and
// only the FT variant is hardened against replays). Liveness is not
// required: a protocol beyond its tolerance may stall, but it must never
// declare two leaders.
struct RegistryChaosReport {
  struct Entry {
    std::string protocol;
    std::uint64_t seed;
    std::string violation;
  };
  std::uint32_t cases = 0;
  std::vector<Entry> violations;
};
RegistryChaosReport SweepRegistryChaos(std::uint64_t seed0,
                                       std::uint32_t seeds_per_protocol,
                                       std::uint32_t n,
                                       std::uint32_t threads = 1);

// Stable 64-bit digest of everything observable in a RunResult. Equal
// digests mean the runs were indistinguishable; tests use this to assert
// same-seed bit-reproducibility.
std::uint64_t FingerprintResult(const sim::RunResult& r);

// One-line render for logs: "seed=7 leader=12 ... OK" or the violation.
std::string Describe(const ChaosCaseResult& c);

}  // namespace celect::harness
