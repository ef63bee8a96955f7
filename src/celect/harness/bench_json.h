// Machine-readable bench results: one BENCH_<suite>.json per suite.
//
// The pipeline every bench binary shares:
//
//   BenchEnv env(argc, argv, "E6");          // --threads, --json, --quick
//   auto results = RunSweep(grid, env.sweep());
//   env.reporter().Add(BenchRow{...});       // one row per sweep point
//   return env.Finish();                     // writes --json if requested
//
// Document schema (schema_version 2):
//
//   {
//     "suite": "E6",
//     "git_rev": "<short rev or unknown>",
//     "schema_version": 2,
//     "rows": [
//       { "n": 32, "protocol": "C", "seed_count": 1,
//         "messages": {"mean":..., "sd":..., "min":..., "max":...},
//         "time":     {"mean":..., "sd":..., "min":..., "max":...},
//         "wall_ns": ..., "events_per_sec": ...,
//         "extra": {"k": 4, ...} },         // optional, suite-specific
//     ],
//     "histograms": {                       // optional: merged telemetry
//       "latency":       {"count":..., "sum":..., "min":..., "max":...,
//                         "mean":..., "p50":..., "p90":..., "p99":...,
//                         "buckets": [...]},// power-of-two bucket counts
//       "queue_depth":   {...},
//       "capture_width": {...}
//     }
//   }
//
// schema_version 1 is version 2 minus the "histograms" key; readers that
// accept 2 accept 1.
//
// Everything except wall_ns / events_per_sec is a deterministic function
// of the grid: rows from a --threads=8 run are byte-identical to a
// --threads=1 run. Doubles are rendered with std::to_chars (shortest
// round-trip form), so the bytes are stable for equal values. No
// third-party JSON dependency.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "celect/harness/sweep.h"
#include "celect/obs/telemetry.h"
#include "celect/sim/runtime.h"
#include "celect/util/stats.h"

namespace celect::harness {

// Shortest-round-trip decimal rendering (JSON-compatible: infinities and
// NaN degrade to 0, which JSON cannot represent).
std::string JsonNumber(double v);

// One aggregated sweep point: `seed_count` runs reduced into Summary
// statistics, in grid-index order.
struct BenchRow {
  std::string protocol;
  std::uint32_t n = 0;
  std::uint32_t seed_count = 1;
  Summary messages;   // total_messages per run
  Summary time;       // leader_time (units) per run
  std::uint64_t wall_ns = 0;     // summed host time across the runs
  double events_per_sec = 0.0;   // aggregate throughput over wall_ns
  // Suite-specific columns (k, f, r, ...), emitted under "extra" in
  // insertion order.
  std::vector<std::pair<std::string, double>> extra;
};

// Folds a contiguous range of sweep results (one grid point, >= 1 seeds)
// into a row. Reduction is in the order given: deterministic.
BenchRow MakeBenchRow(const std::string& protocol, std::uint32_t n,
                      const std::vector<sim::RunResult>& results);

// Accumulates rows for one suite and renders the document.
class BenchReporter {
 public:
  explicit BenchReporter(std::string suite) : suite_(std::move(suite)) {}

  void Add(BenchRow row) { rows_.push_back(std::move(row)); }

  // Folds a run's telemetry into the document-level "histograms"
  // section. Merge in grid order for byte-stable output; the section is
  // omitted while the merged bundle is Empty().
  void MergeTelemetry(const obs::Telemetry& t) { telemetry_.Merge(t); }

  // Suite-specific named distributions (rtt_us, backoff_us, ...): the
  // registry's histograms join the same "histograms" section, after the
  // telemetry ones, in name order. Its counters are not rendered.
  void MergeMetrics(const obs::MetricsRegistry& m) { metrics_.MergeFrom(m); }

  const std::string& suite() const { return suite_; }
  const std::vector<BenchRow>& rows() const { return rows_; }
  const obs::Telemetry& telemetry() const { return telemetry_; }

  // The git revision compiled into the library ("unknown" outside a
  // configured checkout).
  static std::string GitRev();

  std::string ToJson() const;
  // Writes ToJson() to `path`; false (with a log line) on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  std::string suite_;
  std::vector<BenchRow> rows_;
  obs::Telemetry telemetry_;
  obs::MetricsRegistry metrics_;
};

// Renders one Histogram as the JSON object used by the "histograms"
// section (count/sum/min/max/mean/p50/p90/p99 + trimmed bucket array).
std::string HistogramJson(const obs::Histogram& h);

// Shared flag plumbing for the bench mains: --threads=N fans sweeps out
// over a worker pool, --json=PATH writes the suite document, --quick
// shrinks grids for CI smoke runs, --trace=PATH asks the suite to write
// a Perfetto trace of one representative run (suites that support it
// check trace_path()), --telemetry folds histograms into the JSON.
class BenchEnv {
 public:
  // Parses flags; on --help prints the help text and exits 0.
  BenchEnv(int argc, const char* const* argv, std::string suite);

  std::uint32_t threads() const { return threads_; }
  bool quick() const { return quick_; }
  // Ceiling for suite size sweeps: the largest N a suite should grow its
  // grid to, when the suite supports scaling (0 = the suite's built-in
  // default). The ladder-queue rework made N in the tens of thousands
  // affordable, so the ceiling is a flag rather than a constant.
  std::uint32_t nmax() const { return nmax_; }
  // The suite's effective ceiling: the flag when given, else the
  // suite default passed in.
  std::uint32_t EffectiveNMax(std::uint32_t suite_default) const {
    return nmax_ == 0 ? suite_default : nmax_;
  }
  const std::string& trace_path() const { return trace_path_; }
  bool telemetry() const { return telemetry_; }
  SweepOptions sweep() const { return SweepOptions{threads_}; }
  BenchReporter& reporter() { return reporter_; }

  // Writes the JSON document when --json was given. Returns the process
  // exit code (non-zero when the write failed).
  int Finish();

 private:
  BenchReporter reporter_;
  std::string json_path_;
  std::string trace_path_;
  std::uint32_t threads_ = 1;
  std::uint32_t nmax_ = 0;
  bool quick_ = false;
  bool telemetry_ = false;
};

}  // namespace celect::harness
