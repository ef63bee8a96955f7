// Runtime behaviour: delivery, arrival ports, FIFO, passive wakeup
// barring, failed nodes, metrics, trace, packed queued packets.
#include "celect/sim/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "celect/proto/common.h"
#include "celect/proto/nosod/protocol_d.h"
#include "celect/sim/network.h"

namespace celect::sim {
namespace {

constexpr std::uint16_t kPing = 1;
constexpr std::uint16_t kPong = 2;

// Node 0 pings everyone; everyone pongs back; node 0 declares when all
// pongs arrive.
class PingPong : public Process {
 public:
  explicit PingPong(const ProcessInit& init) : n_(init.n) {}

  void OnWakeup(Context& ctx) override {
    ctx.SendAll(wire::Packet{kPing, {ctx.id()}});
  }

  void OnMessage(Context& ctx, Port from_port,
                 const wire::Packet& p) override {
    if (p.type == kPing) {
      ctx.Send(from_port, wire::Packet{kPong, {}});
    } else if (++pongs_ == n_ - 1) {
      ctx.DeclareLeader();
    }
  }

 private:
  std::uint32_t n_;
  std::uint32_t pongs_ = 0;
};

ProcessFactory PingPongFactory() {
  return [](const ProcessInit& init) {
    return std::make_unique<PingPong>(init);
  };
}

NetworkConfig BasicConfig(std::uint32_t n) {
  NetworkConfig c;
  c.n = n;
  c.mapper = MakeSodMapper(n);
  c.delays = MakeUnitDelay();
  c.wakeup = WakeSingle(n, 0);
  return c;
}

TEST(Runtime, PingPongRoundTrip) {
  Runtime rt(BasicConfig(8), PingPongFactory());
  auto r = rt.Run();
  EXPECT_EQ(r.leader_declarations, 1u);
  EXPECT_EQ(r.leader_id, Id{1});
  EXPECT_EQ(r.total_messages, 14u);  // 7 pings + 7 pongs
  // Ping arrives at 1, pong at 2.
  EXPECT_DOUBLE_EQ(r.leader_time.ToDouble(), 2.0);
  EXPECT_DOUBLE_EQ(r.quiesce_time.ToDouble(), 2.0);
}

TEST(Runtime, MessagesByTypeAccounting) {
  Runtime rt(BasicConfig(5), PingPongFactory());
  auto r = rt.Run();
  EXPECT_EQ(r.messages_by_type.at(kPing), 4u);
  EXPECT_EQ(r.messages_by_type.at(kPong), 4u);
  EXPECT_GT(r.total_bytes, 0u);
}

// No host implements Context::SendFresh; a protocol that calls it must
// stop at once rather than send somewhere.
class SendsFresh : public Process {
 public:
  void OnWakeup(Context& ctx) override {
    ctx.SendFresh(wire::Packet{kPing, {}});
  }
  void OnMessage(Context&, Port, const wire::Packet&) override {}
};

TEST(ContextDeathTest, SendFreshHasNoHost) {
  EXPECT_DEATH(
      {
        Runtime rt(BasicConfig(4), [](const ProcessInit&) {
          return std::make_unique<SendsFresh>();
        });
        rt.Run();
      },
      "Context::SendFresh has no host");
}

TEST(Runtime, FailedNodesEatMessages) {
  NetworkConfig c = BasicConfig(6);
  c.failed.assign(6, false);
  c.failed[3] = true;
  Runtime rt(std::move(c), PingPongFactory());
  auto r = rt.Run();
  // Node 0 never gets node 3's pong, so nobody declares; run quiesces.
  EXPECT_EQ(r.leader_declarations, 0u);
  EXPECT_EQ(r.total_messages, 5u + 4u);  // 5 pings counted, 4 pongs
}

TEST(Runtime, TraceRecordsSendsAndDeliveries) {
  NetworkConfig c = BasicConfig(3);
  RuntimeOptions opts;
  opts.enable_trace = true;
  Runtime rt(std::move(c), PingPongFactory(), opts);
  rt.Run();
  const auto& recs = rt.trace().records();
  int sends = 0, recvs = 0, wakes = 0, leads = 0;
  for (const auto& r : recs) {
    switch (r.kind) {
      case TraceRecord::Kind::kSend:
        ++sends;
        break;
      case TraceRecord::Kind::kDeliver:
        ++recvs;
        break;
      case TraceRecord::Kind::kWakeup:
        ++wakes;
        break;
      case TraceRecord::Kind::kLeader:
        ++leads;
        break;
      default:
        break;  // fault/timer records don't occur in this fault-free run
    }
  }
  EXPECT_EQ(sends, 4);
  EXPECT_EQ(recvs, 4);
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(leads, 1);
}

TEST(Runtime, TracePreservesPerLinkFifo) {
  // Under random delays, deliveries on each directed link must appear in
  // send order.
  NetworkConfig c;
  c.n = 12;
  c.mapper = MakeSodMapper(12);
  c.delays = MakeRandomDelay(777);
  c.wakeup = WakeAllAtZero(12);
  RuntimeOptions opts;
  opts.enable_trace = true;
  Runtime rt(std::move(c), PingPongFactory(), opts);
  rt.Run();

  // Reconstruct per-(from,to) send and delivery sequences by packet type
  // count; FIFO holds iff deliveries never decrease in trace seq order
  // per link. We use arrival times monotone per link.
  std::map<std::pair<NodeId, NodeId>, Time> last_arrival;
  for (const auto& r : rt.trace().records()) {
    if (r.kind != TraceRecord::Kind::kDeliver) continue;
    auto key = std::make_pair(r.peer, r.node);  // from, to
    auto it = last_arrival.find(key);
    if (it != last_arrival.end()) {
      EXPECT_GE(r.at, it->second) << "FIFO violated on link " << r.peer
                                  << "->" << r.node;
    }
    last_arrival[key] = r.at;
  }
}

// A process that records whether it was a base node.
class BaseRecorder : public proto::ElectionProcess {
 public:
  explicit BaseRecorder(const ProcessInit&) {}

 protected:
  void OnSpontaneousWakeup(Context& ctx) override {
    ctx.Send(1, wire::Packet{kPing, {}});
  }
  void OnPacket(Context&, Port, const wire::Packet&, bool) override {}
};

TEST(Runtime, MessageContactBarsLaterSpontaneousWakeup) {
  // Node 0 wakes at t=0 and pings node 1 (arrives t=1). Node 1's
  // spontaneous wakeup is scheduled at t=2 — by then it has heard a
  // message, so it must NOT become a base node.
  NetworkConfig c;
  c.n = 4;
  c.mapper = MakeSodMapper(4);
  c.delays = MakeUnitDelay();
  c.wakeup.wakeups = {{0, Time::Zero()}, {1, Time::FromUnits(2)}};
  Runtime rt(std::move(c), [](const ProcessInit& init) {
    return std::make_unique<BaseRecorder>(init);
  });
  rt.Run();
  auto& p0 = dynamic_cast<proto::ElectionProcess&>(rt.process(0));
  auto& p1 = dynamic_cast<proto::ElectionProcess&>(rt.process(1));
  auto& p2 = dynamic_cast<proto::ElectionProcess&>(rt.process(2));
  EXPECT_TRUE(p0.is_base());
  EXPECT_TRUE(p1.awake());
  EXPECT_FALSE(p1.is_base());  // barred by the earlier ping
  EXPECT_FALSE(p2.awake());
}

TEST(Runtime, SpontaneousWakeupBeforeContactIsBase) {
  NetworkConfig c;
  c.n = 4;
  c.mapper = MakeSodMapper(4);
  c.delays = MakeUnitDelay();
  // Node 1 wakes at 0.5, before node 0's ping arrives at 1.
  c.wakeup.wakeups = {{0, Time::Zero()}, {1, Time::FromDouble(0.5)}};
  Runtime rt(std::move(c), [](const ProcessInit& init) {
    return std::make_unique<BaseRecorder>(init);
  });
  rt.Run();
  auto& p1 = dynamic_cast<proto::ElectionProcess&>(rt.process(1));
  EXPECT_TRUE(p1.is_base());
}

TEST(Runtime, CustomIdentities) {
  NetworkConfig c = BasicConfig(4);
  c.identities = {40, 10, 30, 20};
  Runtime rt(std::move(c), PingPongFactory());
  auto r = rt.Run();
  EXPECT_EQ(r.leader_id, Id{40});  // node 0's identity
}

TEST(Runtime, MaxLinkLoadReflectsBurstiness) {
  Runtime rt(BasicConfig(8), PingPongFactory());
  auto r = rt.Run();
  EXPECT_EQ(r.max_link_load, 1u);  // ping-pong never reuses a direction
}

// Pings like PingPong, but node 0 also arms a far-future watchdog timer
// at wakeup and cancels it once the first pong arrives.
class WatchdogPingPong : public Process {
 public:
  explicit WatchdogPingPong(const ProcessInit& init) : n_(init.n) {}

  void OnWakeup(Context& ctx) override {
    watchdog_ = ctx.SetTimer(Time::FromDouble(100000.0));
    ctx.SendAll(wire::Packet{kPing, {ctx.id()}});
  }

  void OnMessage(Context& ctx, Port from_port,
                 const wire::Packet& p) override {
    if (p.type == kPing) {
      ctx.Send(from_port, wire::Packet{kPong, {}});
      return;
    }
    if (watchdog_ != kInvalidTimer) {
      ctx.CancelTimer(watchdog_);
      watchdog_ = kInvalidTimer;
    }
    if (++pongs_ == n_ - 1) ctx.DeclareLeader();
  }

  void OnTimer(Context&, TimerId) override { timer_fired_ = true; }

 private:
  std::uint32_t n_;
  std::uint32_t pongs_ = 0;
  TimerId watchdog_ = kInvalidTimer;
  bool timer_fired_ = false;
};

// Regression: a cancelled far-future timer is a tombstone in the queue;
// it must not stretch quiescence (or the live horizon) to a deadline
// that never fires. Quiescence must land exactly where the timer-free
// PingPong run lands.
TEST(Runtime, CancelledFarFutureTimerLeavesQuiescenceUnchanged) {
  Runtime rt(BasicConfig(8), [](const ProcessInit& init) {
    return std::make_unique<WatchdogPingPong>(init);
  });
  auto r = rt.Run();
  EXPECT_EQ(r.leader_declarations, 1u);
  EXPECT_DOUBLE_EQ(r.quiesce_time.ToDouble(), 2.0);
  EXPECT_EQ(r.timers_fired, 0u);
  EXPECT_EQ(r.counters.at("sim.timers_cancelled"), 1);
}

// A sender that puts one huge burst on a single FIFO link. Unit delays
// serialise the burst one unit apart, so the tail of the backlog arrives
// more than 4096 units (2^32 ticks) after its send — past what
// DeliveryEvent's 32-bit latency field can represent.
class BurstSender : public Process {
 public:
  explicit BurstSender(const ProcessInit&) {}

  void OnWakeup(Context& ctx) override {
    for (int i = 0; i < 4100; ++i) ctx.Send(1, wire::Packet{kPing, {}});
  }

  void OnMessage(Context&, Port, const wire::Packet&) override {}

 private:
};

// Regression: latency saturation used to clip silently, feeding the
// telemetry histogram a fake mode at the ceiling. It must now surface
// as counters["sim.latency_saturated"].
TEST(Runtime, LatencySaturationIsCounted) {
  NetworkConfig c = BasicConfig(2);
  RuntimeOptions opt;
  opt.enable_telemetry = true;
  Runtime rt(std::move(c), [](const ProcessInit& init) {
    return std::make_unique<BurstSender>(init);
  }, opt);
  auto r = rt.Run();
  ASSERT_TRUE(r.counters.contains("sim.latency_saturated"));
  // 4100 messages spaced one unit apart: arrivals past ~4096 units clip.
  EXPECT_GT(r.counters.at("sim.latency_saturated"), 0);
  EXPECT_LT(r.counters.at("sim.latency_saturated"), 100);
}

// Packed queued packets. Node 0 sends a script of packets to node 1 on
// wakeup (and with `declare` then declares at once); node 1 records
// what arrives. Every handler must see exactly the packet that was
// sent, whether it rode inline in its DeliveryEvent or in the spill
// store.
class Courier : public Process {
 public:
  Courier(const ProcessInit& init, const std::vector<wire::Packet>& script,
          std::vector<wire::Packet>& received, bool declare)
      : node_(init.address),
        script_(script),
        received_(received),
        declare_(declare) {}

  void OnWakeup(Context& ctx) override {
    if (node_ != 0) return;
    for (const wire::Packet& p : script_) ctx.Send(1, p);
    if (declare_) ctx.DeclareLeader();
  }
  void OnMessage(Context&, Port, const wire::Packet& p) override {
    received_.push_back(p);
  }

 private:
  NodeId node_;
  const std::vector<wire::Packet>& script_;
  std::vector<wire::Packet>& received_;
  bool declare_;
};

struct CourierRun {
  RunResult result;
  std::vector<wire::Packet> received;
  std::uint64_t spilled = 0;
  std::size_t pending_spills = 0;
};

CourierRun RunCourier(const std::vector<wire::Packet>& script,
                      FaultPlan faults = {}, RuntimeOptions opts = {},
                      bool declare = false) {
  NetworkConfig c = BasicConfig(2);
  c.faults = std::move(faults);
  CourierRun out;
  Runtime rt(
      std::move(c),
      [&](const ProcessInit& init) {
        return std::make_unique<Courier>(init, script, out.received, declare);
      },
      opts);
  out.result = rt.Run();
  out.spilled = rt.spilled_deliveries();
  out.pending_spills = rt.pending_spills();
  return out;
}

constexpr std::int64_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kI32Max = std::numeric_limits<std::int32_t>::max();

// Packets with 4 to 6 fields, up to a Packet's capacity
// (wire::kMaxPacketFields).
std::vector<wire::Packet> WidePackets() {
  std::vector<wire::Packet> out;
  for (std::int64_t n = 4;
       n <= static_cast<std::int64_t>(wire::kMaxPacketFields); ++n) {
    wire::Packet p;
    p.type = static_cast<std::uint16_t>(40 + n);
    for (std::int64_t i = 0; i < n; ++i) p.fields.push_back(n * 10 + i);
    out.push_back(p);
  }
  return out;
}

TEST(PackedPackets, UpToThreeFieldsRideInline) {
  const std::vector<wire::Packet> script = {
      wire::Packet{0, {}},
      wire::Packet{1, {0}},
      wire::Packet{2, {-5, 7}},
      wire::Packet{0xFFFF, {1, -2, 3}},
  };
  const CourierRun run = RunCourier(script);
  EXPECT_EQ(run.received, script);
  EXPECT_EQ(run.spilled, 0u);
  EXPECT_EQ(run.pending_spills, 0u);
}

TEST(PackedPackets, Int32BoundsStayInlineAndOnePastSpills) {
  const std::vector<wire::Packet> script = {
      wire::Packet{3, {kI32Min}},
      wire::Packet{3, {kI32Max}},
      wire::Packet{3, {kI32Min, kI32Max, 0}},
      wire::Packet{4, {kI32Min - 1}},
      wire::Packet{4, {0, kI32Max + 1}},
      wire::Packet{4, {std::numeric_limits<std::int64_t>::min(),
                       std::numeric_limits<std::int64_t>::max()}},
  };
  const CourierRun run = RunCourier(script);
  EXPECT_EQ(run.received, script);
  EXPECT_EQ(run.spilled, 3u);
  EXPECT_EQ(run.pending_spills, 0u);
}

TEST(PackedPackets, FourToSevenFieldsSpillAndRoundTrip) {
  const std::vector<wire::Packet> script = WidePackets();
  const CourierRun run = RunCourier(script);
  EXPECT_EQ(run.received, script);
  EXPECT_EQ(run.spilled, script.size());
  EXPECT_EQ(run.pending_spills, 0u);
}

TEST(PackedPackets, DuplicatedSpillDeliversTwiceWithEqualPackets) {
  std::vector<wire::Packet> script = WidePackets();
  script.push_back(wire::Packet{5, {1, 2}});  // inline, duplicated too
  FaultPlan faults;
  faults.link.duplicate = 1.0;
  faults.seed = 7;
  const CourierRun run = RunCourier(script, faults);
  EXPECT_EQ(run.result.messages_duplicated, script.size());
  ASSERT_EQ(run.received.size(), 2 * script.size());
  for (const wire::Packet& p : script) {
    EXPECT_EQ(std::count(run.received.begin(), run.received.end(), p), 2)
        << wire::ToString(p);
  }
  // Each copy of a wide packet had an entry of its own.
  EXPECT_EQ(run.spilled, 2 * (script.size() - 1));
  EXPECT_EQ(run.pending_spills, 0u);
}

TEST(PackedPackets, SpillDroppedAtCrashedDestinationIsFreed) {
  const std::vector<wire::Packet> script = WidePackets();
  // Node 1 dies before the deliveries land (at t=1)...
  FaultPlan before;
  before.crashes.push_back(CrashSpec{1, CrashSpec::Trigger::kAtTime,
                                     Time::FromTicks(Time::kTicksPerUnit / 2)});
  const CourierRun early = RunCourier(script, before);
  EXPECT_TRUE(early.received.empty());
  EXPECT_EQ(early.spilled, script.size());
  EXPECT_EQ(early.pending_spills, 0u);
  // ...or on the first of them, unread (mid-handshake death).
  FaultPlan on_type;
  CrashSpec spec;
  spec.node = 1;
  spec.trigger = CrashSpec::Trigger::kOnMessageType;
  spec.message_type = script.front().type;
  on_type.crashes.push_back(spec);
  const CourierRun mid = RunCourier(script, on_type);
  EXPECT_TRUE(mid.received.empty());
  EXPECT_EQ(mid.result.faults_injected, 1u);
  EXPECT_EQ(mid.pending_spills, 0u);
}

// Lets node 0's wakeup run, then stops the run.
class StopAfterWakeup : public ScheduleController {
 public:
  std::optional<std::size_t> ChooseNext(
      const std::vector<const Event*>& enabled) override {
    for (std::size_t i = 0; i < enabled.size(); ++i) {
      const auto* w = std::get_if<WakeupEvent>(&enabled[i]->body);
      if (w != nullptr && w->node == 0) return i;
    }
    return std::nullopt;
  }
};

// A run stopped right after node 0 sends and declares leaves its
// spilled deliveries queued; the runtime frees them when it goes (the
// sanitizer build reports a leak otherwise).
TEST(PackedPackets, RunStoppedEarlyWithSpillsPendingIsClean) {
  const std::vector<wire::Packet> script = WidePackets();
  StopAfterWakeup controller;
  RuntimeOptions opts;
  opts.controller = &controller;
  const CourierRun run = RunCourier(script, {}, opts, /*declare=*/true);
  EXPECT_TRUE(run.result.aborted_by_controller);
  EXPECT_EQ(run.result.leader_declarations, 1u);
  EXPECT_TRUE(run.received.empty());
  EXPECT_EQ(run.pending_spills, script.size());
}

// Protocol D sends {id} and {}: nothing of a flood spills.
TEST(PackedPackets, ProtocolDElectionSpillsNothing) {
  constexpr std::uint32_t kN = 64;
  NetworkConfig c;
  c.n = kN;
  c.mapper = MakeRandomMapper(kN, 5);
  c.delays = MakeUnitDelay();
  c.wakeup = WakeAllAtZero(kN);
  Runtime rt(std::move(c), proto::nosod::MakeProtocolD());
  const RunResult r = rt.Run();
  EXPECT_EQ(r.leader_declarations, 1u);
  EXPECT_GE(r.total_messages, std::uint64_t{kN} * (kN - 1));
  EXPECT_EQ(rt.spilled_deliveries(), 0u);
}

}  // namespace
}  // namespace celect::sim
