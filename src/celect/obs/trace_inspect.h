// Trace inspection: a parseable on-disk record format plus the analyses
// behind the celect_trace CLI — filtering, diffing, and causal chains.
// Semantic validation (Lamport rules, flow pairing, per-link FIFO) is
// CheckShards (shard.h), which checks a single-process trace as one
// shard per node.
//
// The compact format is one record per line,
//
//   <seq> <kind> at=<ticks> node=<n> peer=<n> port=<p> type=<t>
//       clock=<c> mid=<m> phase=<key>       (all on one line)
//
// and round-trips exactly: Serialize(Parse(s)) == s for any serialized
// trace, so a diff of two compact files is a diff of two runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "celect/sim/trace.h"

namespace celect::obs {

// --- compact format -------------------------------------------------

std::string SerializeRecords(const std::vector<sim::TraceRecord>& records);

// One compact line (no trailing newline) for a single record. Shard
// files embed record lines between their header sections, so the
// per-line form is public alongside the whole-trace helpers.
std::string SerializeRecord(const sim::TraceRecord& r);

// nullopt on malformed input, with a message in *error (no line prefix —
// the caller knows the line number).
std::optional<sim::TraceRecord> ParseRecordLine(const std::string& line,
                                                std::string* error);

// nullopt on malformed input, with a line-numbered message in *error.
std::optional<std::vector<sim::TraceRecord>> ParseRecords(
    const std::string& text, std::string* error);

// True for the records that report what became of a sent message —
// kDeliver, kDrop, kLoss, kDuplicate — and so carry the send's mid.
bool IsMessageOutcome(sim::TraceRecord::Kind k);

// --- validation -----------------------------------------------------

// Structural well-formedness scan of a JSON document (objects, arrays,
// strings, numbers, literals — validation only, no tree). nullopt when
// valid, otherwise an offset-tagged message. Used by `celect_trace
// check` on exported Perfetto files.
std::optional<std::string> ValidateJson(const std::string& text);

// --- filtering / diffing / causality --------------------------------

struct TraceFilter {
  std::optional<sim::NodeId> node;  // matches acting node or peer
  std::optional<std::uint16_t> type;
  std::optional<PhaseId> phase;     // record's phase tag
  std::optional<std::int64_t> min_ticks;
  std::optional<std::int64_t> max_ticks;  // inclusive

  bool Matches(const sim::TraceRecord& r) const;
};

std::vector<sim::TraceRecord> FilterRecords(
    const std::vector<sim::TraceRecord>& records, const TraceFilter& f);

// First divergence between two traces ("record 17: ..." / length
// mismatch); nullopt when identical.
std::optional<std::string> DiffRecords(
    const std::vector<sim::TraceRecord>& a,
    const std::vector<sim::TraceRecord>& b);

// The causal chain ending in message `mid`, oldest record first: starting
// from the kSend that minted `mid`, walk back through the event that ran
// the sending handler (the delivery/wakeup/timer that triggered it) and,
// across deliveries, hop to the matching send — then append every
// outcome of `mid` itself (deliver, loss, drop, duplicate). Empty when
// no send with that mid exists.
std::vector<sim::TraceRecord> CausalChain(
    const std::vector<sim::TraceRecord>& records, std::uint64_t mid);

}  // namespace celect::obs
