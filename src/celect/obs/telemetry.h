// Streaming telemetry: fixed-footprint histograms and time-series
// samplers the runtime can feed on the hot path.
//
// Everything here is deterministic (a pure function of the event
// schedule), integer-valued, and mergeable — sweeps reduce per-run
// telemetry in grid order, so the merged histograms are identical for
// any worker-thread count, and the bench JSON "histograms" section is
// byte-stable per seed. Memory is O(1) per histogram (64 power-of-two
// buckets) and O(cap) per time series, independent of run length.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

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
  // is zero-filled. Rejects inconsistent parts (bucket total != count,
  // min > max, too many buckets) so a corrupt shard cannot smuggle in
  // an unmergeable histogram.
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

// Bounded time series: records (t, value) pairs, and when the buffer
// fills, drops every other retained point and doubles the sampling
// stride. Deterministic for a deterministic input sequence; the kept
// points always span the full run at uniform (power-of-two) stride.
class TimeSeries {
 public:
  struct Point {
    std::int64_t at;  // sim ticks
    std::int64_t value;
    friend bool operator==(const Point&, const Point&) = default;
  };

  explicit TimeSeries(std::size_t cap = 512);

  void Sample(std::int64_t at, std::int64_t value);

  const std::vector<Point>& points() const { return points_; }
  std::uint64_t samples_seen() const { return seen_; }

  friend bool operator==(const TimeSeries&, const TimeSeries&) = default;

 private:
  std::size_t cap_;
  std::uint64_t stride_ = 1;  // keep every stride-th sample
  std::uint64_t seen_ = 0;
  std::vector<Point> points_;
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
  TimeSeries inflight;      // total deliveries in flight over sim time

  bool Empty() const {
    return latency.count() == 0 && queue_depth.count() == 0 &&
           capture_width.count() == 0 && election_latency.count() == 0 &&
           inflight.samples_seen() == 0;
  }
  // Histograms accumulate; the inflight series keeps the first non-empty
  // run (series from different seeds share no time axis).
  void Merge(const Telemetry& o);

  friend bool operator==(const Telemetry&, const Telemetry&) = default;
};

}  // namespace celect::obs
