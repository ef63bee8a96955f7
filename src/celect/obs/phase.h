// Protocol phase taxonomy for the observability layer.
//
// The paper's complexity claims are per-phase budgets — protocol A
// spends O(Nk) messages capturing and O(N/k) electing; protocol C's
// doubling levels each cost 2^(l-1) messages in O(1) time — so the
// simulator lets protocols mark phase spans via Context::BeginPhase/
// EndPhase. Spans nest (FT recovery fires inside a broadcast), carry an
// optional level (doubling level l), are emitted as duration events in
// the Perfetto export, and are aggregated into per-phase message/time
// tables in RunResult::phases.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace celect::obs {

// One slot per distinguishable phase across the protocol family. The
// names are the cross-protocol vocabulary: "capture1" is protocol A's
// stride walk, C's class walk, and G's parallel burst alike, so phase
// tables line up when protocols are compared.
enum class PhaseId : std::uint16_t {
  kNone = 0,      // no span (sentinel; never aggregated)
  kWakeup = 1,    // wakeup ordering (G's first-phase handshake)
  kCapture1 = 2,  // first capture phase (stride/class walk, burst)
  kCapture2 = 3,  // second capture phase (owner + elect rounds, walk)
  kDoubling = 4,  // doubling level l (B's steps, C's phase 2b)
  kBroadcast = 5, // protocol D-style broadcast round
  kRecovery = 6,  // FT timer-driven recovery actions
  kResolve = 7,   // chordal coordinator's block-resolve fan-out
};

// Stable lowercase name ("capture1"); "none" for kNone.
const char* PhaseName(PhaseId id);

// Aggregation/display key: the name alone when level is 0, otherwise
// "<name>.<level>" ("doubling.3").
std::string PhaseKey(PhaseId id, std::int64_t level);

// Inverse of PhaseName; nullopt for unknown names (filters reject them).
std::optional<PhaseId> PhaseFromName(std::string_view name);

// Per-phase aggregate folded into RunResult::phases. Everything is a
// deterministic function of the schedule — no wall clock.
struct PhaseAgg {
  std::uint64_t spans = 0;     // completed Begin..End pairs (auto-closed
                               // spans at quiescence included)
  std::int64_t ticks = 0;      // summed span duration, sim ticks
  std::uint64_t messages = 0;  // sends attributed to the phase
  friend bool operator==(const PhaseAgg&, const PhaseAgg&) = default;
};

}  // namespace celect::obs
