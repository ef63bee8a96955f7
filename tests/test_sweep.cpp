// Tests for the parallel sweep engine and the machine-readable bench
// pipeline: ParallelFor scheduling, serial-vs-parallel bit-identity of
// RunSweep reductions, BenchRow aggregation, and JSON rendering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "celect/harness/bench_json.h"
#include "celect/harness/chaos.h"
#include "celect/harness/experiment.h"
#include "celect/harness/sweep.h"
#include "celect/proto/nosod/protocol_d.h"
#include "celect/proto/nosod/protocol_e.h"
#include "celect/util/text.h"

namespace celect::harness {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (std::uint32_t threads : {1u, 2u, 7u, 32u}) {
    const std::size_t kCount = 101;
    std::vector<std::atomic<int>> hits(kCount);
    ParallelFor(kCount, threads, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads "
                                   << threads;
    }
  }
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  std::atomic<int> calls{0};
  ParallelFor(0, 8, [&](std::size_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, ZeroThreadsMeansHardwareConcurrency) {
  // threads = 0 must still complete (one worker per hardware thread).
  std::vector<std::atomic<int>> hits(16);
  ParallelFor(16, 0, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, MoreThreadsThanWorkCompletes) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(3, 64, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, WorkerExceptionRethrownOnCaller) {
  for (std::uint32_t threads : {1u, 4u}) {
    EXPECT_THROW(
        ParallelFor(64, threads,
                    [](std::size_t i) {
                      if (i == 13) throw std::runtime_error("cell 13");
                    }),
        std::runtime_error)
        << "threads " << threads;
  }
}

TEST(ParallelFor, FailureShortCircuitsRemainingWork) {
  // After the throw, workers stop claiming indices: with the failure
  // planted at the front of the grid, far fewer than all indices run.
  // Each other body takes a fixed ~50 us, so the remaining workers
  // cannot drain the grid before the failure is published — the test
  // checks the short-circuit, not the scheduler.
  std::atomic<int> ran{0};
  const std::size_t kCount = 10000;
  try {
    ParallelFor(kCount, 4, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("first cell");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      ran++;
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first cell");
  }
  EXPECT_LT(ran.load(), static_cast<int>(kCount) - 1);
}

std::vector<SweepPoint> MakeDEpsilonGrid() {
  // A D/Ɛ grid: two protocols, three sizes, two seeds each.
  std::vector<SweepPoint> grid;
  for (std::uint32_t n : {8u, 16u, 32u}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      RunOptions o;
      o.n = n;
      o.seed = seed;
      grid.push_back({"D", proto::nosod::MakeProtocolD(), o});
      RunOptions oe = o;
      oe.identity = IdentityKind::kRandomPermutation;
      grid.push_back({"E", proto::nosod::MakeProtocolE(true), oe});
    }
  }
  return grid;
}

TEST(RunSweep, ParallelResultsBitIdenticalToSerial) {
  auto grid = MakeDEpsilonGrid();
  auto serial = RunSweep(grid, SweepOptions{1});
  auto parallel = RunSweep(grid, SweepOptions{8});
  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(FingerprintResult(serial[i]), FingerprintResult(parallel[i]))
        << "grid index " << i;
  }
}

TEST(RunSweep, MergedSummaryBitIdenticalAcrossThreadCounts) {
  // The acceptance property: reducing results in grid-index order via
  // Summary must give byte-identical statistics for any thread count.
  auto grid = MakeDEpsilonGrid();
  auto reduce = [&](std::uint32_t threads) {
    auto results = RunSweep(grid, SweepOptions{threads});
    Summary messages, time;
    for (const auto& r : results) {
      messages.Add(static_cast<double>(r.total_messages));
      time.Add(r.leader_time.ToDouble());
    }
    Summary merged;
    merged.Merge(messages);
    merged.Merge(time);
    return std::tuple{messages, time, merged};
  };
  auto [m1, t1, g1] = reduce(1);
  for (std::uint32_t threads : {2u, 8u}) {
    auto [m, t, g] = reduce(threads);
    // Exact equality, not EXPECT_NEAR: same additions in the same order
    // must give the same bits.
    EXPECT_EQ(m.count(), m1.count());
    EXPECT_EQ(m.mean(), m1.mean());
    EXPECT_EQ(m.variance(), m1.variance());
    EXPECT_EQ(m.min(), m1.min());
    EXPECT_EQ(m.max(), m1.max());
    EXPECT_EQ(t.mean(), t1.mean());
    EXPECT_EQ(t.variance(), t1.variance());
    EXPECT_EQ(g.mean(), g1.mean());
    EXPECT_EQ(g.variance(), g1.variance());
  }
}

TEST(RunSweep, WallClockIsPopulated) {
  std::vector<SweepPoint> grid;
  RunOptions o;
  o.n = 16;
  grid.push_back({"D", proto::nosod::MakeProtocolD(), o});
  auto results = RunSweep(grid, SweepOptions{1});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].wall_ns, 0u);
  EXPECT_GT(results[0].events_per_sec, 0.0);
}

TEST(MakeBenchRow, AggregatesAcrossSeeds) {
  std::vector<SweepPoint> grid;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    RunOptions o;
    o.n = 16;
    o.seed = seed;
    grid.push_back({"D", proto::nosod::MakeProtocolD(), o});
  }
  auto results = RunSweep(grid, SweepOptions{1});
  auto row = MakeBenchRow("D", 16, results);
  EXPECT_EQ(row.protocol, "D");
  EXPECT_EQ(row.n, 16u);
  EXPECT_EQ(row.seed_count, 3u);
  EXPECT_EQ(row.messages.count(), 3u);
  double sum = 0, total_wall = 0;
  for (const auto& r : results) {
    sum += static_cast<double>(r.total_messages);
    total_wall += static_cast<double>(r.wall_ns);
  }
  EXPECT_DOUBLE_EQ(row.messages.mean(), sum / 3.0);
  EXPECT_EQ(static_cast<double>(row.wall_ns), total_wall);
}

TEST(JsonNumber, RendersCleanly) {
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  // Shortest round-trip form: parsing the text must recover the bits.
  double v = 1.0 / 3.0;
  EXPECT_EQ(std::stod(JsonNumber(v)), v);
}

TEST(JsonString, EscapesSpecials) {
  EXPECT_EQ(JsonString("plain"), "\"plain\"");
  EXPECT_EQ(JsonString("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonString("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonString("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(JsonString(std::string(1, '\x01')), "\"\\u0001\"");
  // UTF-8 passes through untouched (the Ɛ in protocol labels).
  EXPECT_EQ(JsonString("Ɛ"), "\"Ɛ\"");
}

TEST(BenchReporter, GoldenDocument) {
  // Byte-exact golden for the schema. A deliberate change to the
  // document layout must update this test (and the schema comment in
  // bench_json.h, and tools/check_bench_json.py).
  BenchRow row;
  row.protocol = "D";
  row.n = 8;
  row.seed_count = 2;
  row.messages.Add(56.0);
  row.messages.Add(64.0);
  row.time.Add(2.0);
  row.time.Add(2.5);
  row.wall_ns = 1000;
  row.events_per_sec = 5000.0;
  row.extra.emplace_back("k", 4.0);
  BenchReporter reporter("T1");
  reporter.Add(row);
  std::string expected =
      "{\n  \"suite\": \"T1\",\n  \"git_rev\": " +
      JsonString(BenchReporter::GitRev()) +
      ",\n  \"schema_version\": 2,\n  \"rows\": [\n"
      "    {\"n\": 8, \"protocol\": \"D\", \"seed_count\": 2, "
      "\"messages\": {\"mean\": 60, \"sd\": " +
      JsonNumber(row.messages.stddev()) +
      ", \"min\": 56, \"max\": 64}, "
      "\"time\": {\"mean\": 2.25, \"sd\": " +
      JsonNumber(row.time.stddev()) +
      ", \"min\": 2, \"max\": 2.5}, "
      "\"wall_ns\": 1000, \"events_per_sec\": 5000, "
      "\"extra\": {\"k\": 4}}\n  ]\n}\n";
  EXPECT_EQ(reporter.ToJson(), expected);
}

TEST(BenchReporter, HistogramsSection) {
  BenchReporter reporter("T1h");
  reporter.Add(BenchRow{});
  // Empty telemetry: no "histograms" key at all.
  EXPECT_EQ(reporter.ToJson().find("histograms"), std::string::npos);

  obs::Telemetry t;
  t.latency.Add(1);
  t.latency.Add(3);
  t.queue_depth.Add(0);
  reporter.MergeTelemetry(t);
  std::string json = reporter.ToJson();
  EXPECT_NE(json.find("\"histograms\": {"), std::string::npos);
  EXPECT_NE(json.find("\"latency\": {\"count\": 2, \"sum\": 4, "
                      "\"min\": 1, \"max\": 3, \"mean\": 2, \"p50\": 3, "
                      "\"p90\": 3, \"p99\": 3, \"buckets\": [0, 1, 1]}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"queue_depth\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"capture_width\": {\"count\": 0"),
            std::string::npos);
}

TEST(BenchReporter, WriteFileRoundTrips) {
  BenchRow row;
  row.protocol = "E";
  row.n = 4;
  BenchReporter reporter("T2");
  reporter.Add(row);
  std::string path = ::testing::TempDir() + "/celect_bench_roundtrip.json";
  ASSERT_TRUE(reporter.WriteFile(path));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, reporter.ToJson());
  std::remove(path.c_str());
}

TEST(BenchReporter, WriteFileFailsOnBadPath) {
  BenchReporter reporter("T3");
  EXPECT_FALSE(reporter.WriteFile("/nonexistent-dir/x/y.json"));
}

}  // namespace
}  // namespace celect::harness
