#include "celect/obs/telemetry.h"

#include <algorithm>
#include <sstream>

#include "celect/util/text.h"

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

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
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
    if (total + buckets[b] < total) return std::nullopt;
    total += buckets[b];
  }
  if (total != count) return std::nullopt;
  if (count == 0) {
    if (sum != 0 || min != 0 || max != 0) return std::nullopt;
    return h;
  }
  std::size_t lowest = 0;
  while (h.counts_[lowest] == 0) ++lowest;
  if (min > max || BucketOf(min) != lowest ||
      BucketOf(max) != h.BucketsUsed() - 1) {
    return std::nullopt;
  }
  // count·min <= sum <= count·max, divided through so nothing overflows.
  if (sum / count < min || sum / count + (sum % count != 0) > max) {
    return std::nullopt;
  }
  h.count_ = count;
  h.sum_ = sum;
  h.min_ = min;
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

void Telemetry::Merge(const Telemetry& o) {
  latency.Merge(o.latency);
  queue_depth.Merge(o.queue_depth);
  capture_width.Merge(o.capture_width);
  election_latency.Merge(o.election_latency);
}

// --- MetricsRegistry ------------------------------------------------

std::uint32_t MetricsRegistry::InternCounter(std::string_view name) {
  auto it = slots_.find(name);
  if (it != slots_.end()) return it->second;
  const auto slot = static_cast<std::uint32_t>(cells_.size());
  cells_.emplace_back();
  slots_.emplace(std::string(name), slot);
  return slot;
}

void MetricsRegistry::MergeHistogram(std::string_view name,
                                     const Histogram& h) {
  if (h.count() == 0) return;
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    it->second.Merge(h);
  } else {
    histograms_.emplace(std::string(name), h);
  }
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& o) {
  o.ForEachCounter(
      [this](std::string_view name, std::int64_t v) { AddCounter(name, v); });
  for (const auto& [name, h] : o.histograms_) MergeHistogram(name, h);
}

bool MetricsRegistry::Empty() const {
  return histograms_.empty() &&
         std::none_of(cells_.begin(), cells_.end(),
                      [](const Cell& c) { return c.recorded; });
}

std::map<std::string, std::int64_t> MetricsRegistry::counters() const {
  std::map<std::string, std::int64_t> out;
  ForEachCounter([&out](std::string_view name, std::int64_t v) {
    out.emplace_hint(out.end(), name, v);
  });
  return out;
}

bool operator==(const MetricsRegistry& a, const MetricsRegistry& b) {
  return a.counters() == b.counters() && a.histograms_ == b.histograms_;
}

std::string MetricsRegistry::SerializeCompact() const {
  if (Empty()) return "-";
  std::ostringstream os;
  const char* sep = "c:";
  ForEachCounter([&os, &sep](std::string_view name, std::int64_t v) {
    os << sep << name << "=" << v;
    sep = ",";
  });
  sep = *sep == ',' ? " h:" : "h:";
  for (const auto& [name, h] : histograms_) {
    os << sep << name << "=" << h.count() << ";" << h.sum() << ";"
       << h.min() << ";" << h.max() << ";";
    const std::size_t used = h.BucketsUsed();
    for (std::size_t b = 0; b < used; ++b) {
      if (b > 0) os << ":";
      os << h.buckets()[b];
    }
    sep = ",";
  }
  return os.str();
}

std::optional<MetricsRegistry> MetricsRegistry::ParseCompact(
    const std::string& line) {
  MetricsRegistry reg;
  if (line == "-") return reg;
  std::istringstream in(line);
  std::string section;
  while (in >> section) {
    const bool counters = section.rfind("c:", 0) == 0;
    if (!counters && section.rfind("h:", 0) != 0) return std::nullopt;
    for (const std::string& item : SplitOn(section.substr(2), ',')) {
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) return std::nullopt;
      const std::string name = item.substr(0, eq);
      if (counters) {
        const auto v = ParseNumber<std::int64_t>(item.substr(eq + 1));
        if (!v || reg.slots_.count(name) > 0) return std::nullopt;
        reg.AddCounter(name, *v);
        continue;
      }
      const auto parts = SplitOn(item.substr(eq + 1), ';');
      if (parts.size() != 5) return std::nullopt;
      const auto count = ParseNumber<std::uint64_t>(parts[0]);
      const auto sum = ParseNumber<std::uint64_t>(parts[1]);
      const auto min = ParseNumber<std::uint64_t>(parts[2]);
      const auto max = ParseNumber<std::uint64_t>(parts[3]);
      if (!count || !sum || !min || !max) return std::nullopt;
      std::vector<std::uint64_t> buckets;
      if (!parts[4].empty()) {
        for (const std::string& b : SplitOn(parts[4], ':')) {
          const auto bv = ParseNumber<std::uint64_t>(b);
          if (!bv) return std::nullopt;
          buckets.push_back(*bv);
        }
      }
      auto h = Histogram::FromParts(buckets, *count, *sum, *min, *max);
      if (!h || reg.histograms_.count(name) > 0) return std::nullopt;
      reg.MergeHistogram(name, *h);
    }
  }
  return reg;
}

}  // namespace celect::obs
