// Host conformance: one scripted node must leave the same trace under
// both node hosts — sim::Runtime and net::PeerNode over SimNet — since
// both now run it on one sim::NodeCore. Only what a host legitimately
// owns (time, mids, trace seq, timer-id minting) may differ.
#include "celect/sim/node_core.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "celect/net/peer_node.h"
#include "celect/net/sim_net.h"
#include "celect/obs/phase.h"
#include "celect/sim/runtime.h"

namespace celect {
namespace {

using obs::PhaseId;
using sim::TraceRecord;

constexpr std::uint32_t kN = 5;
constexpr std::uint16_t kScript = 7;

// Node 0 opens nested phases, sends on port 1, twice on fresh ports and
// on all ports, then arms three timers. It cancels the second before it
// fires and the first after it fired; the third closes the outer phase
// and sends once more. Every other node stays passive.
class Script final : public sim::Process {
 public:
  explicit Script(const sim::ProcessInit& init) : self_(init.address) {}

  void OnWakeup(sim::Context& ctx) override {
    if (self_ != 0) return;
    ctx.BeginPhase(PhaseId::kCapture1);
    ctx.BeginPhase(PhaseId::kDoubling, 2);
    ctx.Send(1, wire::Packet{kScript, {1}});
    ctx.SendFresh(wire::Packet{kScript, {2}});
    ctx.SendFresh(wire::Packet{kScript, {3}});
    ctx.EndPhase(PhaseId::kDoubling);
    ctx.SendAll(wire::Packet{kScript, {4}});
    first_ = ctx.SetTimer(sim::Time::FromUnits(1));
    const sim::TimerId doomed = ctx.SetTimer(sim::Time::FromUnits(2));
    ctx.SetTimer(sim::Time::FromUnits(3));
    ctx.CancelTimer(doomed);
  }

  void OnMessage(sim::Context&, sim::Port, const wire::Packet&) override {}

  void OnTimer(sim::Context& ctx, sim::TimerId timer) override {
    if (timer == first_) {
      ctx.CancelTimer(first_);  // already fired: a silent no-op
      return;
    }
    ctx.EndPhase(PhaseId::kCapture1);
    ctx.Send(2, wire::Packet{kScript, {5}});
  }

 private:
  sim::NodeId self_;
  sim::TimerId first_ = sim::kInvalidTimer;
};

sim::ProcessFactory ScriptFactory() {
  return [](const sim::ProcessInit& init) {
    return std::make_unique<Script>(init);
  };
}

// Node 0's records as comparable lines: everything but at, mid and seq,
// with timer ids replaced by their arming order.
std::vector<std::string> Project(const std::vector<TraceRecord>& records) {
  std::map<std::uint64_t, int> rank;
  std::vector<std::string> out;
  for (const TraceRecord& r : records) {
    if (r.node != 0) continue;
    std::ostringstream os;
    os << sim::ToString(r.kind) << " peer=" << r.peer << " port=" << r.port
       << " type=" << r.type << " clock=" << r.clock
       << " phase=" << obs::PhaseKey(r.phase, r.phase_level);
    if (r.kind == TraceRecord::Kind::kTimerSet ||
        r.kind == TraceRecord::Kind::kTimerFire ||
        r.kind == TraceRecord::Kind::kTimerCancel) {
      const int next = static_cast<int>(rank.size());
      os << " timer#" << rank.try_emplace(r.mid, next).first->second;
    }
    out.push_back(os.str());
  }
  return out;
}

std::vector<TraceRecord> RunOnRuntime() {
  sim::NetworkConfig c;
  c.n = kN;
  c.mapper = sim::MakeSodMapper(kN);
  c.delays = sim::MakeUnitDelay();
  c.wakeup = sim::WakeSingle(kN, 0);
  sim::RuntimeOptions o;
  o.enable_trace = true;
  sim::Runtime rt(std::move(c), ScriptFactory(), o);
  rt.Run();
  return rt.trace().records();
}

std::vector<TraceRecord> RunOnPeerNodes() {
  net::SimNetConfig nc;
  nc.n = kN;
  nc.seed = 3;
  net::SimNet simnet(nc);
  std::vector<std::unique_ptr<net::PeerNode>> nodes;
  for (net::PeerId p = 0; p < kN; ++p) {
    net::PeerNodeConfig pc;
    pc.id = p + 1;
    pc.trace = true;
    nodes.push_back(
        std::make_unique<net::PeerNode>(pc, simnet.at(p), ScriptFactory()));
  }
  for (auto& node : nodes) node->Pump();
  for (;;) {
    std::optional<net::Micros> next = simnet.NextEvent();
    for (const auto& node : nodes) {
      const auto w = node->NextWake();
      if (w && (!next || *w < *next)) next = w;
    }
    if (!next || *next > 2'000'000) break;
    simnet.virtual_clock().AdvanceTo(*next);
    simnet.DeliverDue();
    for (auto& node : nodes) node->Pump();
  }
  return nodes[0]->MakeShard(/*complete=*/true).records;
}

TEST(NodeCore, BothHostsTraceTheScriptIdentically) {
  const std::vector<std::string> runtime = Project(RunOnRuntime());
  const std::vector<std::string> peer = Project(RunOnPeerNodes());
  EXPECT_EQ(runtime, peer);

  // The rules the shared core settles, spelled out on the common trace:
  // phases are recorded, node-local records name the node itself on no
  // port, and only the live cancel leaves a record.
  const std::vector<std::string> expected = {
      "wake peer=0 port=0 type=0 clock=1 phase=none",
      "pbeg peer=0 port=0 type=0 clock=1 phase=capture1",
      "pbeg peer=0 port=0 type=0 clock=1 phase=doubling.2",
      "send peer=1 port=1 type=7 clock=2 phase=doubling.2",
      "send peer=2 port=2 type=7 clock=3 phase=doubling.2",
      "send peer=3 port=3 type=7 clock=4 phase=doubling.2",
      "pend peer=0 port=0 type=0 clock=4 phase=doubling.2",
      "send peer=1 port=1 type=7 clock=5 phase=capture1",
      "send peer=2 port=2 type=7 clock=6 phase=capture1",
      "send peer=3 port=3 type=7 clock=7 phase=capture1",
      "send peer=4 port=4 type=7 clock=8 phase=capture1",
      "tset peer=0 port=0 type=0 clock=8 phase=capture1 timer#0",
      "tset peer=0 port=0 type=0 clock=8 phase=capture1 timer#1",
      "tset peer=0 port=0 type=0 clock=8 phase=capture1 timer#2",
      "tcxl peer=0 port=0 type=0 clock=8 phase=capture1 timer#1",
      "fire peer=0 port=0 type=0 clock=9 phase=capture1 timer#0",
      "fire peer=0 port=0 type=0 clock=10 phase=capture1 timer#2",
      "pend peer=0 port=0 type=0 clock=10 phase=capture1",
      "send peer=2 port=2 type=7 clock=11 phase=none",
  };
  EXPECT_EQ(runtime, expected);
}

}  // namespace
}  // namespace celect
