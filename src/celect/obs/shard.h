// Cross-process observability shards: the unit a multi-process election
// emits per node incarnation and the reducer that folds shards back
// into one coherent artifact.
//
// A TraceShard bundles everything one PeerNode incarnation knows about
// itself — its causal trace records, its flight-recorder ring (session
// state transitions, retransmits, suspicion episodes), and a metrics
// registry of counters plus associative histograms. Shards serialize to
// a line-oriented text format that embeds the compact trace-record
// format (trace_inspect.h) verbatim, so a shard file is greppable and a
// crashed process's partial flush still parses.
//
// The ShardReducer is order-independent: shards are keyed and sorted by
// (node, epoch) and duplicate flushes of the same incarnation collapse
// to the most complete one, so merging the same shard set in any
// arrival order yields byte-identical output. Histogram merging is
// associative and commutative for the same reason.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "celect/obs/telemetry.h"
#include "celect/sim/trace.h"

namespace celect::obs {

// --- flight recorder ------------------------------------------------

// Session-layer moments worth keeping when a process dies mid-election.
enum class FlightKind : std::uint8_t {
  kSessionStart = 1,   // a: local epoch
  kEstablished = 2,    // a: remote epoch
  kEpochAdopt = 3,     // a: adopted remote epoch (peer restarted)
  kRetransmit = 4,     // a: frame seq, b: scheduled backoff (us)
  kHelloRetry = 5,     // a: retry count so far
  kSuspectBegin = 6,   // a: exhaustion streak that crossed the budget
  kSuspectEnd = 7,     // a: episode duration (us)
  kWindowStall = 8,    // a: packets parked behind a full window
  kResetSent = 9,      // a: local epoch
  kResetReceived = 10, // a: local epoch at receipt
  kVersionMismatch = 11,  // a: peer's wire version
};

// Stable lowercase name ("retransmit"); used in the shard text format.
const char* ToString(FlightKind k);
std::optional<FlightKind> FlightKindFromName(const std::string& name);

struct FlightEvent {
  // Recorder's clock domain (transport Micros); PeerNode::MakeShard
  // rebases to trace ticks so shard timelines share one time axis.
  std::uint64_t at = 0;
  std::uint32_t peer = 0;
  FlightKind kind = FlightKind::kSessionStart;
  std::uint64_t a = 0;  // kind-specific detail (see enum comments)
  std::uint64_t b = 0;
  friend bool operator==(const FlightEvent&, const FlightEvent&) = default;
};

// Bounded ring of FlightEvents. The buffer is allocated once at
// construction and never grows — Note() on the hot path is a store and
// two increments. When full, the oldest events are overwritten; seen()
// minus cap bounds what was lost.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t cap = 1024);

  void Note(std::uint64_t at, std::uint32_t peer, FlightKind kind,
            std::uint64_t a = 0, std::uint64_t b = 0);

  // Retained events, oldest first.
  std::vector<FlightEvent> Snapshot() const;

  std::uint64_t seen() const { return seen_; }
  std::uint64_t dropped() const {
    return seen_ > ring_.size() ? seen_ - ring_.size() : 0;
  }
  std::size_t cap() const { return ring_.size(); }

 private:
  std::uint64_t seen_ = 0;
  std::vector<FlightEvent> ring_;
};

// --- trace shards ---------------------------------------------------

// One node incarnation's observability dump. `complete` is false for
// periodic mid-run flushes (the only shard a SIGKILLed victim leaves
// behind) and true for orderly end-of-run dumps.
struct TraceShard {
  sim::NodeId node = 0;
  std::uint64_t epoch = 0;  // transport epoch: distinguishes incarnations
  bool complete = false;
  std::uint64_t dropped = 0;  // trace records discarded at the cap
  std::string label;
  std::vector<FlightEvent> flight;
  MetricsRegistry metrics;
  std::vector<sim::TraceRecord> records;
  friend bool operator==(const TraceShard&, const TraceShard&) = default;
};

std::string SerializeShard(const TraceShard& shard);

// Parses one or more concatenated shards (a merged file is just the
// canonical concatenation). nullopt on malformed input, with a
// line-numbered message in *error.
std::optional<std::vector<TraceShard>> ParseShards(const std::string& text,
                                                   std::string* error);

// Order-independent shard merge. Add() in any order; Merged() is sorted
// by (node, epoch) with duplicate incarnation flushes collapsed to the
// one with the most records (a later flush strictly extends an earlier
// one). SerializeMerged() is therefore byte-identical for any arrival
// order of the same shard set.
class ShardReducer {
 public:
  void Add(TraceShard shard);

  const std::vector<TraceShard>& Merged() const;
  std::string SerializeMerged() const;

  std::size_t added() const { return added_; }

 private:
  std::size_t added_ = 0;
  mutable bool sorted_ = true;
  mutable std::vector<TraceShard> shards_;
};

// A single-process trace as the shard set it already is: one complete
// shard per node that appears, epoch 0, in node order, each holding the
// node's records in trace order with their seq. A sim rejoin keeps the
// node's Lamport clock, so a node is one shard, not one per
// incarnation.
std::vector<TraceShard> ShardsFromRecords(
    const std::vector<sim::TraceRecord>& records);

// --- cross-process validation ---------------------------------------

struct ShardCheckOptions {
  // Assert per-session FIFO: for every (sender incarnation, receiver
  // incarnation) pair, matched sends are delivered in send order. The
  // reliable session guarantees this even over lossy, reordering UDP;
  // in a single-process trace the pair is a directed link, so turn it
  // off for runs with injected reordering or duplication.
  bool expect_fifo = true;
};

// Semantic validation of a shard set — a merged multi-process trace,
// or a single-process one via ShardsFromRecords:
//   - per-shard Lamport monotonicity (an incarnation restarts at 0, so
//     clocks are checked per shard, never across shards of one node),
//   - global mid uniqueness (each wire mid minted by exactly one send
//     across all shards),
//   - outcome pairing (every kDeliver/kDrop/kLoss/kDuplicate carries a
//     mid that some shard's kSend minted),
//   - the cross-process join rule (a delivery's clock exceeds the clock
//     carried by the matching send in the sender's shard),
//   - per-session FIFO of deliveries when opted in,
//   - orphan outcomes (no shard contains the send) are tolerated only
//     when some shard of the sending node is incomplete — a SIGKILLed
//     sender's unflushed tail is the one legitimate gap. Under SimNet
//     and in single-process traces every shard is complete, so
//     tolerance is zero.
// Shards share no record order, so "an outcome follows its send" is
// not a rule here; only a single-process trace could state it.
// Returns human-readable problems; empty means the trace is coherent.
std::vector<std::string> CheckShards(const std::vector<TraceShard>& shards,
                                     const ShardCheckOptions& opts = {});

}  // namespace celect::obs
