// Streaming telemetry: fixed-footprint histograms the runtime can feed
// on the hot path, and the metrics registry that names them alongside
// interned counters.
//
// Everything here is deterministic (a pure function of the event
// schedule), integer-valued, and mergeable — sweeps reduce per-run
// telemetry in grid order, so the merged histograms are identical for
// any worker-thread count, and the bench JSON "histograms" section is
// byte-stable per seed. Memory is O(1) per histogram (64 power-of-two
// buckets), independent of run length.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "celect/util/check.h"

namespace celect::obs {

// Power-of-two-bucketed histogram over non-negative integer samples.
// Bucket b holds values v with floor(log2(v)) == b - 1, i.e. bucket 0
// is exactly {0}, bucket 1 is {1}, bucket 2 is {2,3}, bucket 3 is
// {4..7}, ... Exact count/sum/min/max ride alongside, so means are
// exact and only quantiles are bucket-resolution approximations.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void Add(std::uint64_t v);
  void Merge(const Histogram& o);

  // Rebuild a histogram from previously exported parts (shard files,
  // wire snapshots). `buckets` may be shorter than kBuckets — the tail
  // is zero-filled. Rejects parts no sequence of Add() calls produces
  // (too many buckets, bucket total != count, min or max outside the
  // lowest / highest non-empty bucket, sum outside [count·min,
  // count·max], non-zero fields on an empty histogram) so a corrupt
  // shard cannot smuggle in a contradictory histogram.
  static std::optional<Histogram> FromParts(
      const std::vector<std::uint64_t>& buckets, std::uint64_t count,
      std::uint64_t sum, std::uint64_t min, std::uint64_t max);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  // Zero when empty (callers gate on count()).
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  // Upper bound of the bucket containing the q-quantile (q in [0, 1]);
  // exact for q=0/q=1 via min/max. Zero when empty.
  std::uint64_t ApproxQuantile(double q) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return counts_;
  }
  // Index of the highest non-empty bucket + 1 (0 when empty) — callers
  // iterate [0, BucketsUsed()) to skip the empty tail.
  std::size_t BucketsUsed() const;

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// Named int64 counters + named power-of-two histograms with an
// associative, commutative merge: the one store for named metrics.
// sim::Metrics records its named tallies and the protocols' counters
// into one; a PeerNode snapshot is one process's view, and the
// supervisor folds registries from every child (latest snapshot per
// incarnation) into cluster-wide totals.
//
// Counters are interned: a name resolves once to a dense slot
// (InternCounter), and the per-event hot path bumps a plain array cell
// — no string hashing, no allocation. The name-keyed entry points are
// for cold callers and intern on the fly; either path lands in the same
// cell. A counter exists (in counters() and the wire form) only once
// something records to it, even a zero.
class MetricsRegistry {
 public:
  // Stable for the registry's lifetime (copies keep the slots). Call
  // once at setup; then record through the slot overloads below.
  std::uint32_t InternCounter(std::string_view name);
  void AddCounter(std::uint32_t slot, std::int64_t delta) {
    CELECT_DCHECK(slot < cells_.size());
    Cell& c = cells_[slot];
    // Two's-complement wrap, not overflow UB, on hostile merged input.
    c.value = static_cast<std::int64_t>(static_cast<std::uint64_t>(c.value) +
                                        static_cast<std::uint64_t>(delta));
    c.recorded = true;
  }
  // The first record sets the counter outright; later ones keep the max.
  void MaxCounter(std::uint32_t slot, std::int64_t value) {
    CELECT_DCHECK(slot < cells_.size());
    Cell& c = cells_[slot];
    if (!c.recorded || value > c.value) c.value = value;
    c.recorded = true;
  }
  void AddCounter(std::string_view name, std::int64_t delta) {
    AddCounter(InternCounter(name), delta);
  }
  void MaxCounter(std::string_view name, std::int64_t value) {
    MaxCounter(InternCounter(name), value);
  }
  // A slot's current value: 0 until recorded, and for any slot this
  // registry never handed out (kNoSlot included).
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  std::int64_t counter(std::uint32_t slot) const {
    return slot < cells_.size() ? cells_[slot].value : 0;
  }

  // Skips empty histograms, so a name exists only with samples behind it.
  void MergeHistogram(std::string_view name, const Histogram& h);
  void MergeFrom(const MetricsRegistry& o);

  bool Empty() const;

  // Calls fn(std::string_view name, std::int64_t value) for each
  // recorded counter, in name order, without materialising anything.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    for (const auto& [name, slot] : slots_) {
      if (cells_[slot].recorded) {
        fn(std::string_view(name), cells_[slot].value);
      }
    }
  }
  // Recorded counters, materialised in name order.
  std::map<std::string, std::int64_t> counters() const;
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  // Single-line, whitespace-free wire form for shipping snapshots over
  // a pipe: "c:name=v,... h:name=count;sum;min;max;b0:b1:...,...", each
  // section in name order. Either section may be absent; an empty
  // registry serializes to "-". ParseCompact rejects anything but that
  // shape: a non-decimal or out-of-range number, a repeated name, or
  // histogram parts Histogram::FromParts refuses.
  std::string SerializeCompact() const;
  static std::optional<MetricsRegistry> ParseCompact(
      const std::string& line);

  // Equal recorded counters and histograms; slot numbering is ignored.
  friend bool operator==(const MetricsRegistry& a, const MetricsRegistry& b);

 private:
  struct Cell {
    std::int64_t value = 0;
    bool recorded = false;
  };

  std::vector<Cell> cells_;
  // name → slot; iterating it visits the counters in name order.
  std::map<std::string, std::uint32_t, std::less<>> slots_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// The runtime's telemetry bundle (RuntimeOptions::enable_telemetry).
// Empty (all counts zero) when telemetry was off.
struct Telemetry {
  Histogram latency;        // delivery latency, sim ticks
  Histogram queue_depth;    // pending deliveries at the destination,
                            // sampled at each delivery dispatch
  Histogram capture_width;  // messages per completed capture-family span
  // Coverage-gap lengths (ticks from lease lapse to the next grant),
  // one sample per completed re-election. Fed by the churn harness's
  // analysis::LeaseMonitor, not by the runtime — empty elsewhere.
  Histogram election_latency;

  bool Empty() const {
    return latency.count() == 0 && queue_depth.count() == 0 &&
           capture_width.count() == 0 && election_latency.count() == 0;
  }
  void Merge(const Telemetry& o);

  friend bool operator==(const Telemetry&, const Telemetry&) = default;
};

}  // namespace celect::obs
