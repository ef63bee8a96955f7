#include "celect/harness/bench_json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "celect/util/flags.h"
#include "celect/util/logging.h"

#ifndef CELECT_GIT_REV
#define CELECT_GIT_REV "unknown"
#endif

namespace celect::harness {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  // Integral values print without a trailing ".0" via the integer path
  // so counts stay readable; everything else takes the shortest form
  // that round-trips.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

namespace {

void AppendSummary(std::ostringstream& os, const char* name,
                   const Summary& s) {
  os << JsonString(name) << ": {\"mean\": " << JsonNumber(s.mean())
     << ", \"sd\": " << JsonNumber(s.stddev())
     << ", \"min\": " << JsonNumber(s.min())
     << ", \"max\": " << JsonNumber(s.max()) << "}";
}

}  // namespace

BenchRow MakeBenchRow(const std::string& protocol, std::uint32_t n,
                      const std::vector<sim::RunResult>& results) {
  BenchRow row;
  row.protocol = protocol;
  row.n = n;
  row.seed_count = static_cast<std::uint32_t>(results.size());
  std::uint64_t events = 0;
  for (const auto& r : results) {
    row.messages.Add(static_cast<double>(r.total_messages));
    row.time.Add(r.leader_time.ToDouble());
    row.wall_ns += r.wall_ns;
    events += r.events_processed;
  }
  row.events_per_sec =
      row.wall_ns > 0 ? static_cast<double>(events) * 1e9 /
                            static_cast<double>(row.wall_ns)
                      : 0.0;
  return row;
}

std::string BenchReporter::GitRev() { return CELECT_GIT_REV; }

std::string HistogramJson(const obs::Histogram& h) {
  std::ostringstream os;
  os << "{\"count\": " << h.count() << ", \"sum\": " << h.sum()
     << ", \"min\": " << h.min() << ", \"max\": " << h.max()
     << ", \"mean\": " << JsonNumber(h.mean())
     << ", \"p50\": " << h.ApproxQuantile(0.5)
     << ", \"p90\": " << h.ApproxQuantile(0.9)
     << ", \"p99\": " << h.ApproxQuantile(0.99) << ", \"buckets\": [";
  const std::size_t used = h.BucketsUsed();
  for (std::size_t b = 0; b < used; ++b) {
    if (b) os << ", ";
    os << h.buckets()[b];
  }
  os << "]}";
  return os.str();
}

std::string BenchReporter::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"suite\": " << JsonString(suite_)
     << ",\n  \"git_rev\": " << JsonString(GitRev())
     << ",\n  \"schema_version\": 2,\n  \"rows\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const BenchRow& r = rows_[i];
    os << (i ? ",\n    " : "\n    ") << "{\"n\": " << r.n
       << ", \"protocol\": " << JsonString(r.protocol)
       << ", \"seed_count\": " << r.seed_count << ", ";
    AppendSummary(os, "messages", r.messages);
    os << ", ";
    AppendSummary(os, "time", r.time);
    os << ", \"wall_ns\": " << r.wall_ns
       << ", \"events_per_sec\": " << JsonNumber(r.events_per_sec);
    if (!r.extra.empty()) {
      os << ", \"extra\": {";
      for (std::size_t e = 0; e < r.extra.size(); ++e) {
        if (e) os << ", ";
        os << JsonString(r.extra[e].first) << ": "
           << JsonNumber(r.extra[e].second);
      }
      os << "}";
    }
    os << "}";
  }
  os << (rows_.empty() ? "]" : "\n  ]");
  if (!telemetry_.Empty() || !metrics_.histograms().empty()) {
    os << ",\n  \"histograms\": {";
    bool first = true;
    auto emit = [&](const std::string& name, const obs::Histogram& h) {
      os << (first ? "\n    " : ",\n    ") << JsonString(name) << ": "
         << HistogramJson(h);
      first = false;
    };
    if (!telemetry_.Empty()) {
      emit("latency", telemetry_.latency);
      emit("queue_depth", telemetry_.queue_depth);
      emit("capture_width", telemetry_.capture_width);
      // Only churn sweeps feed this one; emitted conditionally so the
      // existing suites' documents stay byte-identical.
      if (telemetry_.election_latency.count() > 0) {
        emit("election_latency", telemetry_.election_latency);
      }
    }
    // Named histograms after the fixed telemetry trio, in name order
    // (the registry holds no empty ones).
    for (const auto& [name, h] : metrics_.histograms()) emit(name, h);
    os << "\n  }";
  }
  os << "\n}\n";
  return os.str();
}

bool BenchReporter::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    CELECT_LOG(Error) << "cannot open " << path << " for writing";
    return false;
  }
  out << ToJson();
  out.flush();
  if (!out) {
    CELECT_LOG(Error) << "short write to " << path;
    return false;
  }
  return true;
}

BenchEnv::BenchEnv(int argc, const char* const* argv, std::string suite)
    : reporter_(std::move(suite)) {
  Flags flags(argc, argv);
  threads_ = static_cast<std::uint32_t>(flags.GetInt(
      "threads", 1, "sweep worker threads (0 = one per hardware thread)"));
  json_path_ = flags.GetString(
      "json", "",
      "write BENCH_" + reporter_.suite() + ".json-style results here");
  quick_ = flags.GetBool("quick", false,
                         "shrink sweep grids for CI smoke runs");
  nmax_ = static_cast<std::uint32_t>(flags.GetInt(
      "nmax", 0,
      "largest N for size sweeps (0 = suite default); suites that sweep "
      "N grow their grid up to this ceiling"));
  trace_path_ = flags.GetString(
      "trace", "",
      "write a Perfetto trace of one representative run here");
  telemetry_ = flags.GetBool(
      "telemetry", false,
      "collect latency/queue-depth histograms into the JSON document");
  if (flags.help_requested()) {
    std::fputs(flags.HelpText().c_str(), stdout);
    // BenchEnv is constructed at the top of main, pre-threading.
    std::exit(0);  // NOLINT(concurrency-mt-unsafe)
  }
}

int BenchEnv::Finish() {
  if (json_path_.empty()) return 0;
  if (!reporter_.WriteFile(json_path_)) return 1;
  CELECT_LOG(Info) << "wrote " << json_path_;
  return 0;
}

}  // namespace celect::harness
