// Observability layer: phase taxonomy, telemetry primitives, causal
// trace metadata (Lamport clocks, message uids), the Perfetto export,
// and the trace inspector (parse/check/filter/diff/chain).
#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "celect/analysis/explorer.h"
#include "celect/harness/chaos.h"
#include "celect/harness/experiment.h"
#include "celect/obs/phase.h"
#include "celect/obs/shard.h"
#include "celect/obs/telemetry.h"
#include "celect/obs/trace_export.h"
#include "celect/obs/trace_inspect.h"
#include "celect/proto/nosod/fault_tolerant.h"
#include "celect/proto/nosod/protocol_d.h"
#include "celect/proto/sod/protocol_b.h"
#include "celect/proto/sod/protocol_c.h"

namespace celect {
namespace {

using harness::RunOptions;
using harness::TracedRun;
using obs::PhaseId;
using sim::TraceRecord;

// --- phase taxonomy --------------------------------------------------

TEST(Phase, NamesRoundTrip) {
  for (PhaseId id :
       {PhaseId::kNone, PhaseId::kWakeup, PhaseId::kCapture1,
        PhaseId::kCapture2, PhaseId::kDoubling, PhaseId::kBroadcast,
        PhaseId::kRecovery, PhaseId::kResolve}) {
    auto back = obs::PhaseFromName(obs::PhaseName(id));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, id);
  }
  EXPECT_FALSE(obs::PhaseFromName("capture9").has_value());
  EXPECT_FALSE(obs::PhaseFromName("").has_value());
}

TEST(Phase, KeyEncodesLevel) {
  EXPECT_EQ(obs::PhaseKey(PhaseId::kCapture1, 0), "capture1");
  EXPECT_EQ(obs::PhaseKey(PhaseId::kDoubling, 3), "doubling.3");
}

// --- telemetry primitives --------------------------------------------

TEST(Histogram, BucketsAndStats) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.ApproxQuantile(0.5), 0u);
  h.Add(0);
  h.Add(1);
  h.Add(2);
  h.Add(3);
  h.Add(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  // Bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2, 3}, 1000 in bucket 10.
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[10], 1u);
  EXPECT_EQ(h.BucketsUsed(), 11u);
  EXPECT_EQ(h.ApproxQuantile(0.0), 0u);
  EXPECT_EQ(h.ApproxQuantile(1.0), 1000u);
  // The extreme quantile is clamped to the observed max.
  EXPECT_LE(h.ApproxQuantile(0.99), 1000u);
}

TEST(Histogram, MergeMatchesSequentialAdds) {
  obs::Histogram a, b, all;
  for (std::uint64_t v : {5u, 9u, 0u}) {
    a.Add(v);
    all.Add(v);
  }
  for (std::uint64_t v : {1u, 1u, 77u}) {
    b.Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a, all);
}

TEST(Telemetry, MergeAndEmpty) {
  obs::Telemetry t;
  EXPECT_TRUE(t.Empty());
  obs::Telemetry o;
  o.latency.Add(3);
  t.Merge(o);
  EXPECT_FALSE(t.Empty());
  EXPECT_EQ(t.latency.count(), 1u);
}

// --- runtime telemetry -----------------------------------------------

TEST(RuntimeTelemetry, PopulatedWhenEnabled) {
  RunOptions o;
  o.n = 16;
  o.mapper = harness::MapperKind::kSenseOfDirection;
  o.enable_telemetry = true;
  auto r = harness::RunElection(proto::sod::MakeProtocolC(), o);
  EXPECT_FALSE(r.telemetry.Empty());
  EXPECT_GT(r.telemetry.latency.count(), 0u);
  EXPECT_GT(r.telemetry.queue_depth.count(), 0u);
  EXPECT_GT(r.telemetry.capture_width.count(), 0u);

  o.enable_telemetry = false;
  auto off = harness::RunElection(proto::sod::MakeProtocolC(), o);
  EXPECT_TRUE(off.telemetry.Empty());
  // Telemetry must not perturb the simulation itself.
  EXPECT_EQ(off.total_messages, r.total_messages);
  EXPECT_EQ(off.phases, r.phases);
}

// --- phase aggregation -----------------------------------------------

TEST(PhaseAggregation, ProtocolCTablesLineUp) {
  RunOptions o;
  o.n = 16;
  o.mapper = harness::MapperKind::kSenseOfDirection;
  auto r = harness::RunElection(proto::sod::MakeProtocolC(), o);
  ASSERT_TRUE(r.phases.count("capture1"));
  ASSERT_TRUE(r.phases.count("capture2"));
  // N = 16: stride k = 4, so doubling levels 1..2 run for the winner.
  ASSERT_TRUE(r.phases.count("doubling.1"));
  ASSERT_TRUE(r.phases.count("doubling.2"));
  EXPECT_GT(r.phases.at("capture1").spans, 0u);
  EXPECT_GT(r.phases.at("capture1").messages, 0u);
  // Phase-attributed sends never exceed the run's total.
  std::uint64_t attributed = 0;
  for (const auto& [key, agg] : r.phases) attributed += agg.messages;
  EXPECT_LE(attributed, r.total_messages);
}

TEST(PhaseAggregation, ProtocolBDoublingLevels) {
  RunOptions o;
  o.n = 16;
  o.mapper = harness::MapperKind::kSenseOfDirection;
  auto r = harness::RunElection(proto::sod::MakeProtocolB(), o);
  // log2(16) = 4 doubling steps; the winner walks all of them.
  for (int level = 1; level <= 4; ++level) {
    ASSERT_TRUE(r.phases.count("doubling." + std::to_string(level)))
        << "missing level " << level;
  }
  // Step l sends 2^(l-1) captures; at least the winner's are attributed.
  EXPECT_GE(r.phases.at("doubling.4").messages, 8u);
}

TEST(PhaseAggregation, ProtocolDBroadcastSpans) {
  RunOptions o;
  o.n = 8;
  auto r = harness::RunElection(proto::nosod::MakeProtocolD(), o);
  ASSERT_TRUE(r.phases.count("broadcast"));
  // Every base node opens one broadcast span (all wake at zero).
  EXPECT_EQ(r.phases.at("broadcast").spans, 8u);
  EXPECT_GT(r.phases.at("broadcast").ticks, 0);
}

// --- causal trace metadata -------------------------------------------

// The checker entry point for a single-process trace: one shard per node.
std::vector<std::string> Check(const std::vector<TraceRecord>& records,
                               bool expect_fifo = true) {
  obs::ShardCheckOptions so;
  so.expect_fifo = expect_fifo;
  return obs::CheckShards(obs::ShardsFromRecords(records), so);
}

// The one ordering rule no shard checker can state, because processes
// share no record order: in the simulator's single trace, every message
// outcome comes after (higher seq than) the send that minted its mid.
// Returns how many outcomes break it.
std::size_t OutcomesBeforeTheirSend(const std::vector<TraceRecord>& records) {
  std::unordered_map<std::uint64_t, std::uint64_t> send_seq;
  for (const auto& r : records) {
    if (r.kind == TraceRecord::Kind::kSend) send_seq.emplace(r.mid, r.seq);
  }
  std::size_t bad = 0;
  for (const auto& r : records) {
    if (!obs::IsMessageOutcome(r.kind)) continue;
    const auto it = send_seq.find(r.mid);
    if (it != send_seq.end() && r.seq <= it->second) ++bad;
  }
  return bad;
}

// Protocol D under 20% loss and 20% duplication: every outcome kind.
TracedRun TraceLossyProtocolD() {
  RunOptions o;
  o.n = 8;
  o.seed = 11;
  o.fault_plan.seed = 11;
  o.fault_plan.link.loss = 0.2;
  o.fault_plan.link.duplicate = 0.2;
  return harness::RunElectionTraced(proto::nosod::MakeProtocolD(), o);
}

TracedRun TraceProtocolC(std::uint64_t seed) {
  RunOptions o;
  o.n = 16;
  o.seed = seed;
  o.mapper = harness::MapperKind::kSenseOfDirection;
  return harness::RunElectionTraced(proto::sod::MakeProtocolC(), o);
}

TEST(TraceCausality, CleanRunIsCoherent) {
  TracedRun run = TraceProtocolC(1);
  ASSERT_FALSE(run.records.empty());
  // Lamport monotonicity, delivery join rule, flow pairing, FIFO.
  EXPECT_EQ(Check(run.records), std::vector<std::string>{});
  EXPECT_EQ(OutcomesBeforeTheirSend(run.records), 0u);
}

TEST(TraceCausality, TimerLifecycleIsTraced) {
  RunOptions o;
  o.n = 8;
  o.seed = 3;
  auto run = harness::RunElectionTraced(proto::nosod::MakeFaultTolerant(1), o);
  auto count = [&run](TraceRecord::Kind k) {
    return std::count_if(run.records.begin(), run.records.end(),
                         [k](const TraceRecord& r) { return r.kind == k; });
  };
  EXPECT_GT(count(TraceRecord::Kind::kTimerSet), 0);
  // The happy path cancels watchdogs as acks arrive — cancels must be
  // visible or timer timelines dangle.
  EXPECT_GT(count(TraceRecord::Kind::kTimerCancel), 0);
  EXPECT_EQ(Check(run.records), std::vector<std::string>{});
}

TEST(TraceCausality, CheckCatchesTampering) {
  TracedRun run = TraceProtocolC(1);
  // Break Lamport monotonicity on some clocked record.
  auto tampered = run.records;
  for (auto& r : tampered) {
    if (r.kind == TraceRecord::Kind::kDeliver) {
      r.clock = 0;
      break;
    }
  }
  EXPECT_FALSE(Check(tampered).empty());

  // Mint a delivery with a mid no send created.
  tampered = run.records;
  for (auto& r : tampered) {
    if (r.kind == TraceRecord::Kind::kDeliver) {
      r.mid = 999999;
      break;
    }
  }
  EXPECT_FALSE(Check(tampered).empty());

  // The same for a loss: every outcome kind must pair with a send.
  TracedRun lossy = TraceLossyProtocolD();
  ASSERT_TRUE(Check(lossy.records, false).empty());
  tampered = lossy.records;
  auto loss = std::find_if(tampered.begin(), tampered.end(),
                           [](const TraceRecord& r) {
                             return r.kind == TraceRecord::Kind::kLoss;
                           });
  ASSERT_NE(loss, tampered.end());
  loss->mid = 999999;
  EXPECT_FALSE(Check(tampered, false).empty());

  // A loss moved ahead of its send (seqs renumbered as the trace would
  // have them): no shard rule sees it, the record-order rule does.
  tampered = lossy.records;
  loss = std::find_if(tampered.begin(), tampered.end(),
                      [](const TraceRecord& r) {
                        return r.kind == TraceRecord::Kind::kLoss;
                      });
  ASSERT_NE(loss, tampered.end());
  const TraceRecord moved = *loss;
  tampered.erase(loss);
  const auto send = std::find_if(
      tampered.begin(), tampered.end(), [&moved](const TraceRecord& r) {
        return r.kind == TraceRecord::Kind::kSend && r.mid == moved.mid;
      });
  ASSERT_NE(send, tampered.end());
  tampered.insert(send, moved);
  for (std::size_t i = 0; i < tampered.size(); ++i) tampered[i].seq = i;
  EXPECT_EQ(OutcomesBeforeTheirSend(lossy.records), 0u);
  EXPECT_EQ(OutcomesBeforeTheirSend(tampered), 1u);
}

TEST(TraceCausality, FlowsPairUnderLossAndDuplication) {
  TracedRun run = TraceLossyProtocolD();
  auto count = [&run](TraceRecord::Kind k) {
    return static_cast<std::uint64_t>(
        std::count_if(run.records.begin(), run.records.end(),
                      [k](const TraceRecord& r) { return r.kind == k; }));
  };
  // The trace accounts for every injected fault...
  EXPECT_EQ(count(TraceRecord::Kind::kLoss), run.result.messages_lost);
  EXPECT_EQ(count(TraceRecord::Kind::kDuplicate),
            run.result.messages_duplicated);
  ASSERT_GT(run.result.messages_lost + run.result.messages_duplicated, 0u);
  // ...and every outcome still pairs with a minted send, after it. FIFO
  // is off: duplicates legitimately overtake.
  EXPECT_EQ(Check(run.records, false), std::vector<std::string>{});
  EXPECT_EQ(OutcomesBeforeTheirSend(run.records), 0u);
}

TEST(TraceCausality, TruncationIsSurfacedNeverSilent) {
  RunOptions o;
  o.n = 16;
  o.mapper = harness::MapperKind::kSenseOfDirection;
  o.trace_cap = 10;
  TracedRun run =
      harness::RunElectionTraced(proto::sod::MakeProtocolC(), o);
  EXPECT_EQ(run.records.size(), 10u);
  ASSERT_TRUE(run.result.counters.count("sim.trace_truncated"));
  EXPECT_GT(run.result.counters.at("sim.trace_truncated"), 0);

  // An uncapped run of the same seed reports nothing.
  o.trace_cap = 10'000'000;
  TracedRun full =
      harness::RunElectionTraced(proto::sod::MakeProtocolC(), o);
  EXPECT_FALSE(full.result.counters.count("sim.trace_truncated"));
}

// --- compact format + inspector --------------------------------------

TEST(TraceInspect, SerializeParseRoundTrip) {
  TracedRun run = TraceProtocolC(1);
  std::string compact = obs::SerializeRecords(run.records);
  std::string error;
  auto parsed = obs::ParseRecords(compact, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), run.records.size());
  EXPECT_EQ(obs::SerializeRecords(*parsed), compact);
}

TEST(TraceInspect, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(obs::ParseRecords("not a trace\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(
      obs::ParseRecords("0 send at=0 node=0 peer=1 port=1 type=1 clock=1 "
                        "mid=1 phase=bogus\n",
                        &error)
          .has_value());
  // Out-of-range fields are rejected, never truncated into a different
  // valid-looking record.
  for (const char* line :
       {"0 send at=0 node=4294967296 peer=1 port=1 type=1 clock=1 mid=1 "
        "phase=none\n",
        "0 send at=0 node=-1 peer=1 port=1 type=1 clock=1 mid=1 "
        "phase=none\n",
        "0 send at=0 node=0 peer=1 port=1 type=70000 clock=1 mid=1 "
        "phase=none\n"}) {
    EXPECT_FALSE(obs::ParseRecords(line, &error).has_value()) << line;
  }
  EXPECT_TRUE(obs::ParseRecords("0 send at=0 node=4294967295 peer=1 port=1 "
                                "type=65535 clock=1 mid=1 phase=none\n",
                                &error)
                  .has_value())
      << error;
}

TEST(TraceInspect, FilterSelects) {
  TracedRun run = TraceProtocolC(1);
  obs::TraceFilter f;
  f.node = 0;
  auto by_node = obs::FilterRecords(run.records, f);
  ASSERT_FALSE(by_node.empty());
  for (const auto& r : by_node) {
    EXPECT_TRUE(r.node == 0 || r.peer == 0);
  }
  obs::TraceFilter p;
  p.phase = PhaseId::kCapture1;
  auto by_phase = obs::FilterRecords(run.records, p);
  ASSERT_FALSE(by_phase.empty());
  for (const auto& r : by_phase) EXPECT_EQ(r.phase, PhaseId::kCapture1);
  obs::TraceFilter window;
  window.min_ticks = 0;
  window.max_ticks = 0;
  auto at_zero = obs::FilterRecords(run.records, window);
  ASSERT_FALSE(at_zero.empty());
  for (const auto& r : at_zero) EXPECT_EQ(r.at.ticks(), 0);
}

TEST(TraceInspect, DiffFindsFirstDivergence) {
  TracedRun run = TraceProtocolC(1);
  EXPECT_FALSE(obs::DiffRecords(run.records, run.records).has_value());
  auto other = run.records;
  other[5].clock += 1;
  auto diff = obs::DiffRecords(run.records, other);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("record 5"), std::string::npos) << *diff;
  other = run.records;
  other.pop_back();
  EXPECT_TRUE(obs::DiffRecords(run.records, other).has_value());
}

TEST(TraceInspect, CausalChainWalksBackToTheWakeup) {
  // Single-wakeup D run: node 0 wakes, elects over every port; each
  // accept is caused by the elect delivery, which is caused by the send,
  // which is caused by the wakeup.
  RunOptions o;
  o.n = 3;
  o.wakeup = harness::WakeupKind::kSingle;
  auto run = harness::RunElectionTraced(proto::nosod::MakeProtocolD(), o);
  // Find an accept (type 2) send minted by node 1 or 2.
  std::uint64_t accept_mid = 0;
  for (const auto& r : run.records) {
    if (r.kind == TraceRecord::Kind::kSend && r.node != 0) {
      accept_mid = r.mid;
      break;
    }
  }
  ASSERT_NE(accept_mid, 0u);
  auto chain = obs::CausalChain(run.records, accept_mid);
  ASSERT_GE(chain.size(), 4u);
  // Oldest first: the spontaneous wakeup of node 0 starts the chain.
  EXPECT_EQ(chain.front().kind, TraceRecord::Kind::kWakeup);
  EXPECT_EQ(chain.front().node, 0u);
  // The chain crosses the elect's send->deliver hop and ends with the
  // accept's own outcomes.
  EXPECT_EQ(chain.back().kind, TraceRecord::Kind::kDeliver);
  EXPECT_EQ(chain.back().mid, accept_mid);
  EXPECT_TRUE(obs::CausalChain(run.records, 999999).empty());
}

// --- Perfetto export -------------------------------------------------

TEST(TraceExport, GoldenPerfettoProtocolD) {
  RunOptions o;
  o.n = 3;
  o.wakeup = harness::WakeupKind::kSingle;
  auto run = harness::RunElectionTraced(proto::nosod::MakeProtocolD(), o);
  // Byte-exact golden: a deliberate format change must update this test
  // (and DESIGN.md §11). Regenerate with:
  //   celect_trace record --protocol=D --n=3 --seed=1 --wakeup=single
  //       --perfetto=/dev/stdout --name=celect   (one command line)
  const std::string expected = R"({"displayTimeUnit": "ms", "traceEvents": [
{"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "celect"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "node 0"}},
{"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 0, "args": {"sort_index": 0}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "node 1"}},
{"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 1, "args": {"sort_index": 1}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "node 2"}},
{"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 2, "args": {"sort_index": 2}},
{"name": "wakeup", "ph": "i", "pid": 1, "tid": 0, "ts": 0, "s": "t", "args": {"seq": 0, "clock": 1}},
{"name": "broadcast", "ph": "B", "pid": 1, "tid": 0, "ts": 0, "args": {"seq": 1, "clock": 1, "phase": "broadcast"}},
{"name": "send t1", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 0, "args": {"seq": 2, "clock": 2, "mid": 1, "port": 1, "type": 1, "peer": 2, "phase": "broadcast"}},
{"name": "msg", "ph": "s", "pid": 1, "tid": 0, "ts": 0, "cat": "msg", "id": 1},
{"name": "send t1", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 0, "args": {"seq": 3, "clock": 3, "mid": 2, "port": 2, "type": 1, "peer": 1, "phase": "broadcast"}},
{"name": "msg", "ph": "s", "pid": 1, "tid": 0, "ts": 0, "cat": "msg", "id": 2},
{"name": "recv t1", "ph": "X", "pid": 1, "tid": 2, "ts": 1048576, "dur": 0, "args": {"seq": 4, "clock": 3, "mid": 1, "port": 2, "type": 1, "peer": 0}},
{"name": "msg", "ph": "f", "pid": 1, "tid": 2, "ts": 1048576, "cat": "msg", "id": 1, "bp": "e"},
{"name": "send t2", "ph": "X", "pid": 1, "tid": 2, "ts": 1048576, "dur": 0, "args": {"seq": 5, "clock": 4, "mid": 3, "port": 2, "type": 2, "peer": 0}},
{"name": "msg", "ph": "s", "pid": 1, "tid": 2, "ts": 1048576, "cat": "msg", "id": 3},
{"name": "recv t1", "ph": "X", "pid": 1, "tid": 1, "ts": 1048576, "dur": 0, "args": {"seq": 6, "clock": 4, "mid": 2, "port": 2, "type": 1, "peer": 0}},
{"name": "msg", "ph": "f", "pid": 1, "tid": 1, "ts": 1048576, "cat": "msg", "id": 2, "bp": "e"},
{"name": "send t2", "ph": "X", "pid": 1, "tid": 1, "ts": 1048576, "dur": 0, "args": {"seq": 7, "clock": 5, "mid": 4, "port": 2, "type": 2, "peer": 0}},
{"name": "msg", "ph": "s", "pid": 1, "tid": 1, "ts": 1048576, "cat": "msg", "id": 4},
{"name": "recv t2", "ph": "X", "pid": 1, "tid": 0, "ts": 2097152, "dur": 0, "args": {"seq": 8, "clock": 5, "mid": 3, "port": 1, "type": 2, "peer": 2, "phase": "broadcast"}},
{"name": "msg", "ph": "f", "pid": 1, "tid": 0, "ts": 2097152, "cat": "msg", "id": 3, "bp": "e"},
{"name": "recv t2", "ph": "X", "pid": 1, "tid": 0, "ts": 2097152, "dur": 0, "args": {"seq": 9, "clock": 6, "mid": 4, "port": 2, "type": 2, "peer": 1, "phase": "broadcast"}},
{"name": "msg", "ph": "f", "pid": 1, "tid": 0, "ts": 2097152, "cat": "msg", "id": 4, "bp": "e"},
{"name": "broadcast", "ph": "E", "pid": 1, "tid": 0, "ts": 2097152, "args": {"seq": 10, "clock": 6, "phase": "broadcast"}},
{"name": "LEADER", "ph": "i", "pid": 1, "tid": 0, "ts": 2097152, "s": "g", "args": {"seq": 11, "clock": 6}},
{"name": "trace_end", "ph": "M", "pid": 1, "args": {"records": 12}}
]}
)";
  EXPECT_EQ(obs::ExportChromeTrace(run.records), expected);
  EXPECT_FALSE(obs::ValidateJson(expected).has_value());
}

TEST(TraceExport, ByteDeterministicPerSeed) {
  // Random delays make the schedule genuinely seed-dependent (the unit
  // model is seed-invariant, which would make the NE check vacuous).
  auto traced = [](std::uint64_t seed) {
    RunOptions o;
    o.n = 16;
    o.seed = seed;
    o.mapper = harness::MapperKind::kSenseOfDirection;
    o.delay = harness::DelayKind::kRandom;
    return harness::RunElectionTraced(proto::sod::MakeProtocolC(), o);
  };
  TracedRun a = traced(7);
  TracedRun b = traced(7);
  EXPECT_EQ(obs::ExportChromeTrace(a.records),
            obs::ExportChromeTrace(b.records));
  TracedRun c = traced(8);
  EXPECT_NE(obs::ExportChromeTrace(a.records),
            obs::ExportChromeTrace(c.records));
}

TEST(TraceExport, ExportedDocumentIsWellFormed) {
  RunOptions o;
  o.n = 8;
  o.seed = 5;
  o.fault_plan.seed = 5;
  o.fault_plan.link.loss = 0.1;
  auto run = harness::RunElectionTraced(proto::nosod::MakeProtocolD(), o);
  std::string json = obs::ExportChromeTrace(run.records);
  EXPECT_FALSE(obs::ValidateJson(json).has_value());
}

TEST(ValidateJson, RejectsBrokenDocuments) {
  EXPECT_FALSE(obs::ValidateJson("{\"a\": [1, 2, {\"b\": null}]}").has_value());
  EXPECT_TRUE(obs::ValidateJson("{\"a\": }").has_value());
  EXPECT_TRUE(obs::ValidateJson("{\"a\": 1} trailing").has_value());
  EXPECT_TRUE(obs::ValidateJson("").has_value());
}

// --- explorer bridge -------------------------------------------------

TEST(ExplorerTrace, ReplayScheduleTracedMatchesUntraced) {
  RunOptions ro;
  ro.n = 3;
  auto config = [&ro] { return harness::BuildNetwork(ro); };
  const auto factory = proto::nosod::MakeProtocolD();
  std::vector<std::uint32_t> choices = {1, 0, 2};
  auto plain = analysis::ReplaySchedule(factory, config, choices);
  auto traced = analysis::ReplayScheduleTraced(factory, config, choices);
  // Tracing must not perturb the replayed schedule.
  EXPECT_EQ(harness::FingerprintResult(plain.result),
            harness::FingerprintResult(traced.result));
  EXPECT_EQ(plain.violations, traced.violations);
  ASSERT_FALSE(traced.records.empty());
  // Controlled schedules may reorder across links; FIFO stays on here
  // because the controller preserves per-link FIFO by construction.
  EXPECT_EQ(Check(traced.records), std::vector<std::string>{});
  std::string json = obs::ExportChromeTrace(traced.records);
  EXPECT_FALSE(obs::ValidateJson(json).has_value());
}

}  // namespace
}  // namespace celect
