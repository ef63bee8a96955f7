#include "celect/obs/telemetry.h"

#include <algorithm>

namespace celect::obs {

namespace {

// Bucket 0 holds {0}; bucket b >= 1 holds [2^(b-1), 2^b).
std::size_t BucketOf(std::uint64_t v) {
  std::size_t b = 0;
  while (v > 0) {
    ++b;
    v >>= 1;
  }
  return b;
}

}  // namespace

void Histogram::Add(std::uint64_t v) {
  counts_[BucketOf(v)] += 1;
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  sum_ += v;
  count_ += 1;
}

void Histogram::Merge(const Histogram& o) {
  if (o.count_ == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
  if (count_ == 0 || o.min_ < min_) min_ = o.min_;
  max_ = std::max(max_, o.max_);
  sum_ += o.sum_;
  count_ += o.count_;
}

std::optional<Histogram> Histogram::FromParts(
    const std::vector<std::uint64_t>& buckets, std::uint64_t count,
    std::uint64_t sum, std::uint64_t min, std::uint64_t max) {
  if (buckets.size() > kBuckets) return std::nullopt;
  Histogram h;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    h.counts_[b] = buckets[b];
    total += buckets[b];
  }
  if (total != count) return std::nullopt;
  if (count > 0 && min > max) return std::nullopt;
  h.count_ = count;
  h.sum_ = sum;
  h.min_ = count ? min : 0;
  h.max_ = max;
  return h;
}

std::uint64_t Histogram::ApproxQuantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max_;
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen > rank) {
      // Upper bound of bucket b, clamped to the observed max.
      std::uint64_t hi = b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
      return std::min(hi, max_);
    }
  }
  return max_;
}

std::size_t Histogram::BucketsUsed() const {
  for (std::size_t b = kBuckets; b > 0; --b) {
    if (counts_[b - 1] > 0) return b;
  }
  return 0;
}

TimeSeries::TimeSeries(std::size_t cap) : cap_(cap < 2 ? 2 : cap) {}

void TimeSeries::Sample(std::int64_t at, std::int64_t value) {
  if (seen_++ % stride_ != 0) return;
  if (points_.size() == cap_) {
    // Thin: keep every other point, double the stride.
    std::size_t w = 0;
    for (std::size_t r = 0; r < points_.size(); r += 2) {
      points_[w++] = points_[r];
    }
    points_.resize(w);
    stride_ *= 2;
    // The sample that triggered the thinning survives only if it still
    // lands on the doubled stride.
    if ((seen_ - 1) % stride_ != 0) return;
  }
  points_.push_back({at, value});
}

void Telemetry::Merge(const Telemetry& o) {
  latency.Merge(o.latency);
  queue_depth.Merge(o.queue_depth);
  capture_width.Merge(o.capture_width);
  election_latency.Merge(o.election_latency);
  if (inflight.samples_seen() == 0) inflight = o.inflight;
}

}  // namespace celect::obs
