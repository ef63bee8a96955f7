// The repository benchmark: closed-loop leader elections through the
// simulator, the SimNet transport and the lease service.
//
//   celect_perfbench --workload <sim_flood|sim_sweep|net_chaos|churn_storm>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// One election runs at a time, on one thread. With --trace 0 every
// election is timed from network construction to teardown with nothing
// attached, and the end-to-end metrics are printed. With --trace 1 each
// input runs twice, untraced and then through timing decorators on the
// library's public seams (ProcessFactory/Process/Context, RunObserver,
// Transport); both runs must agree bit for bit. A captured election is
// then replayed through the event queue, the link table and the codecs
// in isolation, and the per-layer metrics are printed.
//
// stdout: human-readable lines, one "deterministic {...}" line that
// perfbench/run.py compares with perfbench/expected.json, and, last, one
// JSON result object. perfbench/README.md defines every metric.
#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "celect/analysis/invariants.h"
#include "celect/analysis/lease_monitor.h"
#include "celect/harness/chaos.h"
#include "celect/harness/churn.h"
#include "celect/harness/experiment.h"
#include "celect/harness/registry.h"
#include "celect/net/cluster.h"
#include "celect/net/frame.h"
#include "celect/net/peer_node.h"
#include "celect/net/sim_net.h"
#include "celect/proto/nosod/fault_tolerant.h"
#include "celect/proto/nosod/lease_engine.h"
#include "celect/sim/event_queue.h"
#include "celect/sim/link.h"
#include "celect/sim/runtime.h"
#include "celect/util/rng.h"
#include "celect/wire/checksum.h"
#include "celect/wire/packet_codec.h"
#include "celect/wire/varint.h"

namespace {

namespace analysis = celect::analysis;
namespace harness = celect::harness;
namespace net = celect::net;
namespace obs = celect::obs;
namespace sim = celect::sim;
namespace wire = celect::wire;

// ---------------------------------------------------------------------
// Workload shapes. perfbench/README.md records why each one exists.

// sim_flood: protocol D at this N. About a million deliveries are queued
// at once (208 MB peak RSS, against 8 MB of L2 per core), so queue and
// link-table traffic goes to memory.
constexpr std::uint32_t kFloodN = 1024;
constexpr std::size_t kFloodPrefix = 2;
// sim_sweep: every registry protocol at these sizes; one block holds
// each (protocol, N) pair once, in a seeded order.
constexpr std::array<std::uint32_t, 3> kSweepSizes = {64, 128, 256};
constexpr std::size_t kSweepPrefixBlocks = 30;
// churn_storm: the E17 C2 storm, cut into storms of this horizon so one
// run holds many samples.
constexpr std::uint32_t kStormN = 64;
constexpr std::int64_t kStormHorizonUnits = 1000;
constexpr std::size_t kStormPrefix = 16;
// net_chaos: FT(f=1) over SimNet with node 1 killed mid-election.
constexpr std::uint32_t kNetN = 16;
constexpr std::size_t kNetPrefix = 384;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Independent per-input seeds for every (run seed, stream, index).
std::uint64_t InputSeed(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t i) {
  const std::uint64_t base =
      celect::SplitMix64(seed ^ (stream * 0x9E3779B97F4A7C15ULL)).Next();
  return celect::SplitMix64(base + i).Next();
}

// ---------------------------------------------------------------------
// Layer spans, recorded from outside the library around the calls into
// each layer. A span's self time is its duration minus its children's.

enum Layer : std::size_t {
  kElection,  // root: one election (one storm on churn_storm)
  kBuild,     // harness::BuildNetwork (+ churn plan and checkers)
  kCtor,      // sim::Runtime constructor
  kRun,       // sim::Runtime::Run, minus everything below
  kTeardown,  // sim::Runtime (+ checkers) destruction
  kHandler,   // Process::On* handlers, minus Context calls
  kSend,      // Context::Send / SendFresh / SendAll
  kTimer,     // Context::SetTimer / CancelTimer
  kCounter,   // Context counter calls
  kCtxOther,  // DeclareLeader, RecordLease, BeginPhase, EndPhase
  kObserver,  // RunObserver (LeaseMonitor + InvariantRegistry)
  kNetSetup,       // SimNet + PeerNode construction
  kNetLoop,        // agreement checks, the kill script, result folding
  kNetNextEvent,   // SimNet::NextEvent
  kNetNextWake,    // PeerNode::NextWake over the live nodes
  kNetDeliverDue,  // SimNet::DeliverDue
  kNetPump,        // PeerNode::Pump, minus transport and handler time
  kNetPoll,        // Transport::Poll (sessions, frame decode)
  kNetSend,        // Transport::Send (session, frame encode, FakeLink)
  kNetTeardown,    // PeerNode + SimNet destruction
  kLayerCount
};

class Tracer {
 public:
  explicit Tracer(std::size_t protocols)
      : proto_self_ns(protocols), proto_calls(protocols) {
    // A child span's own bookkeeping (two clock reads, a push and a
    // pop) would otherwise land in its parent's self time. Measure it
    // once and leave it out of the parent; no layer is charged with it.
    constexpr int kProbe = 20'000;
    Enter(kElection);
    for (int i = 0; i < kProbe; ++i) {
      Enter(kBuild);
      Exit();
    }
    Exit();
    child_overhead_ns_ = self_ns[kElection] / kProbe;
    self_ns = {};
    calls = {};
  }

  void Enter(Layer layer, std::size_t proto = 0) {
    stack_.push_back(Frame{layer, proto, NowNs(), 0});
  }

  void Exit() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = NowNs() - f.start;
    const std::uint64_t self = dur > f.child ? dur - f.child : 0;
    self_ns[f.layer] += self;
    ++calls[f.layer];
    if (f.layer == kHandler) {
      proto_self_ns[f.proto] += self;
      ++proto_calls[f.proto];
    }
    if (!stack_.empty()) stack_.back().child += dur + child_overhead_ns_;
  }

  std::array<std::uint64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> calls{};
  std::vector<std::uint64_t> proto_self_ns;
  std::vector<std::uint64_t> proto_calls;
  std::uint64_t messages_sent = 0;  // one per message, SendAll included
  std::uint64_t timer_sets = 0;
  std::uint64_t timer_cancels = 0;
  std::uint64_t poll_events = 0;

 private:
  struct Frame {
    Layer layer;
    std::size_t proto;
    std::uint64_t start;
    std::uint64_t child;
  };
  std::vector<Frame> stack_;
  std::uint64_t child_overhead_ns_ = 0;
};

// Null tracer = untraced run: the span costs one branch.
class Span {
 public:
  Span(Tracer* t, Layer layer, std::size_t proto = 0) : t_(t) {
    if (t_ != nullptr) t_->Enter(layer, proto);
  }
  ~Span() {
    if (t_ != nullptr) t_->Exit();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

// Inputs captured from one traced election for the replay probes.
struct CapturedRun {
  harness::RunOptions options;  // sim: rebuilds the delay model
  std::vector<sim::TraceRecord> records;
};

struct Capture {
  static constexpr std::size_t kMaxPackets = 200'000;
  std::vector<CapturedRun> runs;
  std::vector<wire::Packet> packets;  // as handed to Send, capped

  void Keep(const wire::Packet& p) {
    if (packets.size() < kMaxPackets) packets.push_back(p);
  }
};

// ---------------------------------------------------------------------
// Timing decorators. Every virtual is forwarded, so counter interning,
// phase spans and lease accounting behave exactly as without them.

class TimingContext final : public sim::Context {
 public:
  TimingContext(Tracer& t, Capture* cap) : t_(t), cap_(cap) {}

  void Bind(sim::Context& inner) { inner_ = &inner; }

  sim::NodeId address() const override { return inner_->address(); }
  sim::Id id() const override { return inner_->id(); }
  std::uint32_t n() const override { return inner_->n(); }
  sim::Time now() const override { return inner_->now(); }
  bool has_sense_of_direction() const override {
    return inner_->has_sense_of_direction();
  }

  void Send(sim::Port port, wire::Packet p) override {
    if (cap_ != nullptr) cap_->Keep(p);
    Span s(&t_, kSend);
    ++t_.messages_sent;
    inner_->Send(port, std::move(p));
  }
  std::optional<sim::Port> SendFresh(wire::Packet p) override {
    if (cap_ != nullptr) cap_->Keep(p);
    Span s(&t_, kSend);
    auto port = inner_->SendFresh(std::move(p));
    if (port) ++t_.messages_sent;
    return port;
  }
  void SendAll(wire::Packet p) override {
    if (cap_ != nullptr) cap_->Keep(p);
    Span s(&t_, kSend);
    t_.messages_sent += inner_->n() - 1;
    inner_->SendAll(std::move(p));
  }

  sim::TimerId SetTimer(sim::Time delay) override {
    Span s(&t_, kTimer);
    ++t_.timer_sets;
    return inner_->SetTimer(delay);
  }
  void CancelTimer(sim::TimerId timer) override {
    Span s(&t_, kTimer);
    ++t_.timer_cancels;
    inner_->CancelTimer(timer);
  }

  void DeclareLeader() override {
    Span s(&t_, kCtxOther);
    inner_->DeclareLeader();
  }
  void RecordLease(sim::LeaseEvent event) override {
    Span s(&t_, kCtxOther);
    inner_->RecordLease(event);
  }
  using sim::Context::BeginPhase;
  void BeginPhase(celect::obs::PhaseId phase, std::int64_t level) override {
    Span s(&t_, kCtxOther);
    inner_->BeginPhase(phase, level);
  }
  void EndPhase(celect::obs::PhaseId phase) override {
    Span s(&t_, kCtxOther);
    inner_->EndPhase(phase);
  }

  void AddCounter(std::string_view name, std::int64_t delta) override {
    Span s(&t_, kCounter);
    inner_->AddCounter(name, delta);
  }
  void MaxCounter(std::string_view name, std::int64_t value) override {
    Span s(&t_, kCounter);
    inner_->MaxCounter(name, value);
  }
  sim::CounterRef ResolveCounter(std::string_view name) override {
    Span s(&t_, kCounter);
    return inner_->ResolveCounter(name);
  }
  void AddCounter(const sim::CounterRef& c, std::int64_t delta) override {
    Span s(&t_, kCounter);
    inner_->AddCounter(c, delta);
  }
  void MaxCounter(const sim::CounterRef& c, std::int64_t value) override {
    Span s(&t_, kCounter);
    inner_->MaxCounter(c, value);
  }

 private:
  Tracer& t_;
  Capture* cap_;
  sim::Context* inner_ = nullptr;
};

class TimingProcess final : public sim::Process {
 public:
  TimingProcess(std::unique_ptr<sim::Process> inner, Tracer& t,
                std::size_t proto, Capture* cap)
      : inner_(std::move(inner)), t_(t), proto_(proto), ctx_(t, cap) {}

  void OnWakeup(sim::Context& c) override {
    Handle(c, [&] { inner_->OnWakeup(ctx_); });
  }
  void OnMessage(sim::Context& c, sim::Port from_port,
                 const wire::Packet& p) override {
    Handle(c, [&] { inner_->OnMessage(ctx_, from_port, p); });
  }
  void OnTimer(sim::Context& c, sim::TimerId timer) override {
    Handle(c, [&] { inner_->OnTimer(ctx_, timer); });
  }
  void OnPeerSuspected(sim::Context& c, sim::Port port) override {
    Handle(c, [&] { inner_->OnPeerSuspected(ctx_, port); });
  }
  void OnRejoin(sim::Context& c) override {
    Handle(c, [&] { inner_->OnRejoin(ctx_); });
  }
  std::string DescribeState() const override {
    return inner_->DescribeState();
  }
  sim::ProtocolObservables Observe() const override {
    return inner_->Observe();
  }

 private:
  template <typename F>
  void Handle(sim::Context& c, F&& call) {
    ctx_.Bind(c);
    Span s(&t_, kHandler, proto_);
    call();
  }

  std::unique_ptr<sim::Process> inner_;
  Tracer& t_;
  std::size_t proto_;
  TimingContext ctx_;
};

sim::ProcessFactory Timed(sim::ProcessFactory inner, Tracer& t,
                          std::size_t proto, Capture* cap) {
  return [inner = std::move(inner), &t, proto,
          cap](const sim::ProcessInit& init) -> std::unique_ptr<sim::Process> {
    return std::make_unique<TimingProcess>(inner(init), t, proto, cap);
  };
}

class TimingObserver final : public sim::RunObserver {
 public:
  TimingObserver(sim::RunObserver& inner, Tracer& t) : inner_(inner), t_(t) {}
  void AfterEvent(sim::NodeId target, const sim::RunInspect& in) override {
    Span s(&t_, kObserver);
    inner_.AfterEvent(target, in);
  }
  void AtQuiescence(const sim::RunInspect& in) override {
    Span s(&t_, kObserver);
    inner_.AtQuiescence(in);
  }

 private:
  sim::RunObserver& inner_;
  Tracer& t_;
};

class TimingTransport final : public net::Transport {
 public:
  TimingTransport(net::Transport& inner, Tracer& t, Capture* cap)
      : inner_(inner), t_(t), cap_(cap) {}

  net::PeerId self() const override { return inner_.self(); }
  net::PeerId n() const override { return inner_.n(); }
  net::Micros Now() override { return inner_.Now(); }
  using net::Transport::Send;
  void Send(net::PeerId peer, const wire::Packet& p,
            net::TraceContext tc) override {
    if (cap_ != nullptr) cap_->Keep(p);
    Span s(&t_, kNetSend);
    inner_.Send(peer, p, tc);
  }
  void Poll(std::vector<net::TransportEvent>& out) override {
    Span s(&t_, kNetPoll);
    const std::size_t before = out.size();
    inner_.Poll(out);
    t_.poll_events += out.size() - before;
  }
  std::optional<net::Micros> NextWake() const override {
    return inner_.NextWake();
  }
  net::TransportStats Stats() const override { return inner_.Stats(); }
  std::uint64_t epoch() const override { return inner_.epoch(); }
  const obs::FlightRecorder* recorder() const override {
    return inner_.recorder();
  }

 private:
  net::Transport& inner_;
  Tracer& t_;
  Capture* cap_;
};

// ---------------------------------------------------------------------
// One election's (or storm's) outcome. Everything but the two timings
// is deterministic per input and must match between untraced and
// traced runs.

struct Outcome {
  bool ok = false;
  std::string why;
  std::uint64_t wall_ns = 0;   // construct + run + destroy
  std::uint64_t setup_ns = 0;  // construct only

  std::uint64_t leader = 0;
  std::uint64_t declarations = 0;
  std::uint64_t elections = 0;  // 1, or the storm's completed elections
  std::uint64_t messages = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t events = 0;
  double time_units = 0;  // summed over `elections`
  std::uint64_t fingerprint = 0;
  std::int64_t unavailable_ticks = 0;
  std::int64_t horizon_ticks = 0;
  obs::Histogram latency;
  std::uint64_t delivered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t suspicions = 0;
  net::Micros rtt_p50_us = 0;
  net::Micros rtt_p99_us = 0;
};

bool SameDeterministic(const Outcome& a, const Outcome& b) {
  return a.ok == b.ok && a.leader == b.leader &&
         a.declarations == b.declarations && a.elections == b.elections &&
         a.messages == b.messages && a.datagrams == b.datagrams &&
         a.events == b.events && a.time_units == b.time_units &&
         a.fingerprint == b.fingerprint &&
         a.unavailable_ticks == b.unavailable_ticks &&
         a.horizon_ticks == b.horizon_ticks && a.latency == b.latency &&
         a.delivered == b.delivered && a.retransmits == b.retransmits &&
         a.suspicions == b.suspicions && a.rtt_p50_us == b.rtt_p50_us &&
         a.rtt_p99_us == b.rtt_p99_us;
}

// Protocol names usable in metric names: A' -> A-prime.
std::string MetricName(const std::string& protocol) {
  std::string out;
  for (char c : protocol) {
    if (c == '\'') {
      out += "-prime";
    } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-') {
      out += c;
    } else {
      out += '-';
    }
  }
  return out;
}

// Registry protocols, then the lease engine churn_storm runs.
std::vector<std::string> ProtocolNames() {
  std::vector<std::string> names;
  for (const auto& spec : harness::AllProtocols()) {
    names.push_back(MetricName(spec.name));
  }
  names.push_back("lease");
  return names;
}

std::size_t ProtocolIndex(const std::string& name) {
  const auto names = ProtocolNames();
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) {
    std::fprintf(stderr, "protocol %s missing from the registry\n",
                 name.c_str());
    std::exit(2);
  }
  return static_cast<std::size_t>(it - names.begin());
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string Describe() const = 0;
  // Inputs 0..prefix()-1 run in every run; the deterministic metrics
  // are taken over exactly these, so they repeat per seed.
  virtual std::size_t prefix() const = 0;
  // Inputs captured for the replay probes in the traced run.
  virtual std::size_t captures() const = 0;
  virtual Outcome Run(std::size_t i, Tracer* tr, Capture* cap) = 0;
  // Untimed work before the timed loop. Returns a disagreement between
  // this benchmark's election loop and the library's own entry point,
  // empty when there is none.
  virtual std::string Prepare() { return ""; }
  virtual bool is_net() const { return false; }
  virtual bool is_churn() const { return false; }
};

// ---------------------------------------------------------------------
// sim_flood and sim_sweep: one election per input, harness::BuildNetwork
// + sim::Runtime, checked for one declaration by the maximum id.

class SimWorkload final : public Workload {
 public:
  SimWorkload(std::uint64_t seed, bool flood) : seed_(seed), flood_(flood) {
    for (const auto& spec : harness::AllProtocols()) {
      specs_.push_back(spec);
      factories_.push_back(spec.make(0));
      single_base_.push_back(spec.name == "lmw86" || spec.name == "A" ||
                             spec.name == "A'");
    }
    flood_proto_ = ProtocolIndex("D");
  }

  std::string Describe() const override {
    if (flood_) {
      return "protocol D, N=" + std::to_string(kFloodN) +
             ", random mapper, unit delays, all nodes wake at 0, "
             "random-permutation ids";
    }
    return "all " + std::to_string(specs_.size()) +
           " registry protocols x N in {64,128,256}, random delays, "
           "random-subset wakeups (one base node for lmw86, A, A'), "
           "random-permutation ids";
  }
  std::size_t prefix() const override {
    return flood_ ? kFloodPrefix
                  : kSweepPrefixBlocks * specs_.size() * kSweepSizes.size();
  }
  std::size_t captures() const override {
    return flood_ ? 1 : specs_.size() * kSweepSizes.size();
  }

  Outcome Run(std::size_t i, Tracer* tr, Capture* cap) override {
    std::size_t proto = flood_proto_;
    harness::RunOptions opt;
    opt.seed = InputSeed(seed_, 1, i);
    opt.mapper = harness::MapperKind::kRandom;
    opt.identity = harness::IdentityKind::kRandomPermutation;
    if (flood_) {
      opt.n = kFloodN;
      opt.delay = harness::DelayKind::kUnit;
      opt.wakeup = harness::WakeupKind::kAllAtZero;
    } else {
      // Each block of inputs holds every (protocol, N) pair once, in a
      // seeded order.
      const std::size_t pairs = specs_.size() * kSweepSizes.size();
      celect::Rng order(InputSeed(seed_, 2, i / pairs));
      const std::uint32_t pair =
          order.Permutation(static_cast<std::uint32_t>(pairs))[i % pairs];
      proto = pair / kSweepSizes.size();
      opt.n = kSweepSizes[pair % kSweepSizes.size()];
      if (specs_[proto].needs_sense_of_direction) {
        opt.mapper = harness::MapperKind::kSenseOfDirection;
      }
      opt.delay = harness::DelayKind::kRandom;
      opt.wakeup = harness::WakeupKind::kRandomSubset;
      opt.wakeup_window = 1.0;
      // lmw86, A and A' run protocol A's node, which can declare two
      // leaders when candidates contend (perfbench/README.md). One base
      // node means one candidate, so these elections cannot fail.
      if (single_base_[proto]) opt.wakeup_count = 1;
    }
    return RunOne(opt, proto, tr, cap);
  }

 private:
  Outcome RunOne(const harness::RunOptions& opt, std::size_t proto,
                 Tracer* tr, Capture* cap) {
    const sim::ProcessFactory factory =
        tr != nullptr ? Timed(factories_[proto], *tr, proto, cap)
                      : factories_[proto];
    sim::RuntimeOptions ro;
    ro.enable_trace = cap != nullptr;
    Outcome out;
    sim::RunResult r;
    sim::Id max_id = 0;
    bool leader_was_base = false;
    const std::uint64_t t0 = NowNs();
    {
      Span root(tr, kElection);
      std::optional<sim::Runtime> rt;
      {
        // The constructor span nests in the build span; self times
        // keep the two apart.
        Span s(tr, kBuild);
        sim::NetworkConfig config = harness::BuildNetwork(opt);
        Span c(tr, kCtor);
        rt.emplace(std::move(config), factory, ro);
      }
      out.setup_ns = NowNs() - t0;
      {
        Span s(tr, kRun);
        r = rt->Run();
      }
      const auto& ids = rt->config().identities;
      for (const auto& [node, at] : rt->config().wakeup.wakeups) {
        leader_was_base |= r.leader_id == ids[node];
      }
      if (flood_) max_id = *std::max_element(ids.begin(), ids.end());
      if (cap != nullptr) cap->runs.push_back({opt, rt->trace().records()});
      Span s(tr, kTeardown);
      rt.reset();
    }
    out.wall_ns = NowNs() - t0;

    // One declaration, by a node that woke spontaneously. Flooding with
    // every node awake must elect the maximum id; the capture protocols
    // elect by (level, id) and promise no particular winner.
    out.ok = r.leader_declarations == 1 && r.leader_id.has_value() &&
             leader_was_base &&
             (!flood_ || *r.leader_id == max_id);
    if (!out.ok) {
      out.why = specs_[proto].name + " " + harness::Describe(opt) + ": " +
                harness::Summarize(r) + " (max id " + std::to_string(max_id) +
                ")";
    }
    out.leader = r.leader_id.value_or(0);
    out.declarations = r.leader_declarations;
    out.elections = 1;
    out.messages = r.total_messages;
    out.datagrams = r.total_messages;
    out.events = r.events_processed;
    out.time_units = r.leader_time.ToDouble();
    out.fingerprint = harness::FingerprintResult(r);
    return out;
  }

  std::uint64_t seed_;
  bool flood_;
  std::vector<harness::ProtocolSpec> specs_;
  std::vector<sim::ProcessFactory> factories_;
  std::vector<bool> single_base_;
  std::size_t flood_proto_ = 0;
};

// ---------------------------------------------------------------------
// churn_storm: the lease service under churn, with LeaseMonitor and
// InvariantRegistry checking after every event. Mirrors
// harness::RunChurnCase, split so construction is timed on its own.

class ChurnWorkload final : public Workload {
 public:
  explicit ChurnWorkload(std::uint64_t seed)
      : seed_(seed), lease_proto_(ProtocolIndex("lease")) {
    opt_.n = kStormN;
    opt_.churn_nodes = 8;
    opt_.lease.horizon = sim::Time::FromUnits(kStormHorizonUnits);
    opt_.lease.max_renewals = 1;
    lease_ = harness::EffectiveLeaseParams(opt_);
    factory_ = celect::proto::nosod::MakeLeaseEngine(lease_);
  }

  std::string Describe() const override {
    return "lease storm: N=" + std::to_string(kStormN) +
           ", 8 churn nodes, max_renewals=1, random delays, horizon " +
           std::to_string(kStormHorizonUnits) +
           " units per storm, LeaseMonitor + InvariantRegistry after every "
           "event";
  }
  std::size_t prefix() const override { return kStormPrefix; }
  std::size_t captures() const override { return 1; }
  bool is_churn() const override { return true; }

  Outcome Run(std::size_t i, Tracer* tr, Capture* cap) override {
    const std::uint64_t seed = InputSeed(seed_, 3, i);
    const sim::ProcessFactory factory =
        tr != nullptr ? Timed(factory_, *tr, lease_proto_, cap) : factory_;
    Outcome out;
    sim::RunResult r;
    std::string violation;
    const std::uint64_t t0 = NowNs();
    {
      Span root(tr, kElection);
      std::optional<analysis::InvariantRegistry> registry;
      std::optional<analysis::LeaseMonitor> monitor;
      std::optional<TimingObserver> timing;
      std::optional<sim::Runtime> rt;
      harness::RunOptions ro;
      sim::NetworkConfig config;
      sim::RuntimeOptions rto;
      {
        Span s(tr, kBuild);
        ro.n = opt_.n;
        ro.seed = seed;
        ro.mapper = opt_.mapper;
        ro.delay = opt_.delay;
        ro.wakeup = harness::WakeupKind::kAllAtZero;
        ro.max_events = opt_.max_events;
        ro.fault_plan = harness::MakeChurnPlan(seed, opt_);
        analysis::InvariantOptions io;
        io.unique_leader = false;
        registry.emplace(io);
        analysis::LeaseMonitorOptions mo;
        mo.horizon = lease_.horizon;
        mo.reelection_window = harness::DefaultReelectionWindow(lease_);
        mo.chained = &*registry;
        monitor.emplace(mo);
        rto.max_events = opt_.max_events;
        rto.enable_trace = cap != nullptr;
        rto.observer = &*monitor;
        if (tr != nullptr) {
          timing.emplace(*monitor, *tr);
          rto.observer = &*timing;
        }
        config = harness::BuildNetwork(ro);
      }
      {
        Span s(tr, kCtor);
        rt.emplace(std::move(config), factory, rto);
      }
      out.setup_ns = NowNs() - t0;
      {
        Span s(tr, kRun);
        r = rt->Run();
      }
      out.unavailable_ticks = monitor->unavailable_ticks();
      out.latency = monitor->election_latency();
      if (!monitor->ok()) violation = "LIVENESS: " + monitor->Summary();
      if (!registry->ok()) violation += " INVARIANT: " + registry->Summary();
      if (cap != nullptr) cap->runs.push_back({ro, rt->trace().records()});
      Span s(tr, kTeardown);
      rt.reset();
      timing.reset();
      monitor.reset();
      registry.reset();
    }
    out.wall_ns = NowNs() - t0;

    // As RunChurnCase does, so FingerprintResult agrees with it.
    r.telemetry.election_latency.Merge(out.latency);
    out.elections = out.latency.count();
    out.ok = violation.empty() && out.elections > 0;
    if (!out.ok) {
      out.why = "storm seed " + std::to_string(seed) + ": " +
                (violation.empty() ? "no election completed" : violation);
    }
    out.leader = r.leader_id.value_or(0);
    out.declarations = r.leader_declarations;
    out.messages = r.total_messages;
    out.datagrams = r.total_messages;
    out.events = r.events_processed;
    out.time_units = static_cast<double>(out.latency.sum()) /
                     static_cast<double>(sim::Time::kTicksPerUnit);
    out.fingerprint = harness::FingerprintResult(r);
    out.horizon_ticks = lease_.horizon.ticks();
    return out;
  }

  // Holds this loop to harness::RunChurnCase on input 0.
  std::string Prepare() override {
    const Outcome mine = Run(0, nullptr, nullptr);
    const harness::ChurnCaseResult ref =
        harness::RunChurnCase(InputSeed(seed_, 3, 0), opt_);
    if (mine.fingerprint != harness::FingerprintResult(ref.result) ||
        mine.unavailable_ticks != ref.unavailable_ticks ||
        mine.elections != ref.elections_completed ||
        !(mine.latency == ref.election_latency) ||
        mine.ok != ref.violation.empty()) {
      return "churn_storm loop disagrees with harness::RunChurnCase";
    }
    return "";
  }

 private:
  std::uint64_t seed_;
  std::size_t lease_proto_;
  harness::ChurnOptions opt_;
  celect::proto::nosod::LeaseParams lease_;
  sim::ProcessFactory factory_;
};

// ---------------------------------------------------------------------
// net_chaos: FT(f=1) hosted by PeerNodes over SimNet. Untraced runs
// time net::RunSimElection itself. Traced runs drive a copy of its loop
// so every layer call can be timed; the copy must reproduce the
// library's result for every input.

net::ClusterConfig NetConfig(std::uint64_t seed) {
  net::ClusterConfig c;
  c.n = kNetN;
  c.seed = seed;
  c.link.loss = 0.10;
  c.link.duplicate = 0.02;
  c.link.reorder = 0.05;
  c.link.delay_min = 500;
  c.link.delay_max = 3'000;
  c.link.reorder_extra = 8'000;
  c.unit_us = 20'000;
  // Killed early enough that nearly every election routes around the
  // dead peer; no restart (see perfbench/README.md, "net_chaos").
  c.chaos = {{100'000, 1, net::ChaosEvent::What::kKill}};
  return c;
}

// The identities net::RunSimElection assigns.
std::vector<sim::Id> ClusterIds(std::uint32_t n, std::uint64_t seed) {
  celect::Rng rng(celect::SplitMix64(seed ^ 0x1d5).Next());
  const auto perm = rng.Permutation(n);
  std::vector<sim::Id> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ids[i] = static_cast<sim::Id>(perm[i]) * 7 + 1001;
  }
  return ids;
}

// The SimNet and PeerNode configurations net::RunSimElection builds.
net::SimNetConfig SimNetConfigOf(const net::ClusterConfig& config) {
  net::SimNetConfig nc;
  nc.n = config.n;
  nc.link = config.link;
  nc.session = config.session;
  nc.seed = config.seed;
  return nc;
}

net::PeerNodeConfig PeerConfigOf(const net::ClusterConfig& config,
                                 sim::Id id) {
  net::PeerNodeConfig pc;
  pc.id = id;
  pc.unit_us = config.unit_us;
  pc.announce_interval_us = config.announce_interval_us;
  return pc;
}

class NetWorkload final : public Workload {
 public:
  explicit NetWorkload(std::uint64_t seed)
      : seed_(seed),
        ft_proto_(ProtocolIndex("FT")),
        factory_(celect::proto::nosod::MakeFaultTolerant(1)) {}

  std::string Describe() const override {
    return "FT(f=1) over SimNet, n=" + std::to_string(kNetN) +
           ", FakeLink loss 0.10 dup 0.02 reorder 0.05, delay 0.5-3 ms "
           "(+8 ms reordered), 20 ms unit, node 1 killed at 100 ms";
  }
  std::size_t prefix() const override { return kNetPrefix; }
  std::size_t captures() const override { return 8; }
  bool is_net() const override { return true; }

  Outcome Run(std::size_t i, Tracer* tr, Capture* cap) override {
    return tr != nullptr ? RunLoop(i, tr, cap) : RunLibrary(i);
  }

  // Runs the benchmark's loop, untraced, on every input; its event and
  // declaration counts complete the library's results.
  std::string Prepare() override {
    loop_.clear();
    for (std::size_t i = 0; i < prefix(); ++i) {
      loop_.push_back(RunLoop(i, nullptr, nullptr));
    }
    return "";
  }

 private:
  // net::RunSimElection, timed end to end. setup_ns comes from a
  // separate, identical SimNet + PeerNode construction.
  Outcome RunLibrary(std::size_t i) {
    const net::ClusterConfig config = NetConfig(InputSeed(seed_, 4, i));
    Outcome out;
    out.setup_ns = SetupNs(config);
    const std::uint64_t t0 = NowNs();
    const net::ClusterResult r = net::RunSimElection(config, factory_);
    out.wall_ns = NowNs() - t0;

    out.ok = r.agreed;
    if (!out.ok) out.why = "no agreement, seed " + std::to_string(config.seed);
    out.leader = r.leader;
    out.elections = 1;
    out.messages = r.delivered;
    out.datagrams = r.datagrams;
    out.time_units = static_cast<double>(r.elapsed_us) /
                     static_cast<double>(config.unit_us);
    out.fingerprint = r.fingerprint;
    out.delivered = r.delivered;
    out.retransmits = r.retransmits;
    out.suspicions = r.suspicions;
    out.rtt_p50_us = r.rtt_p50_us;
    out.rtt_p99_us = r.rtt_p99_us;
    // RunSimElection reports no event or declaration counts.
    out.events = loop_[i].events;
    out.declarations = loop_[i].declarations;
    if (!SameDeterministic(out, loop_[i])) {
      out.ok = false;
      out.why = "input " + std::to_string(i) +
                ": the benchmark's loop disagrees with net::RunSimElection";
    }
    return out;
  }

  std::uint64_t SetupNs(const net::ClusterConfig& config) const {
    const auto ids = ClusterIds(config.n, config.seed);
    const std::uint64_t t0 = NowNs();
    net::SimNet simnet(SimNetConfigOf(config));
    std::vector<std::unique_ptr<net::PeerNode>> nodes;
    for (net::PeerId p = 0; p < config.n; ++p) {
      nodes.push_back(std::make_unique<net::PeerNode>(
          PeerConfigOf(config, ids[p]), simnet.at(p), factory_));
    }
    return NowNs() - t0;
  }

  // A copy of the net::RunSimElection loop with a span around every
  // layer call. Only the transport seam captures packets: PeerNode
  // forwards every application send to it.
  Outcome RunLoop(std::size_t i, Tracer* tr, Capture* cap) {
    const net::ClusterConfig config = NetConfig(InputSeed(seed_, 4, i));
    const sim::ProcessFactory factory =
        tr != nullptr ? Timed(factory_, *tr, ft_proto_, nullptr) : factory_;
    const std::uint32_t n = config.n;
    const auto ids = ClusterIds(n, config.seed);

    Outcome out;
    net::ClusterResult result;
    std::vector<net::Micros> rtt;
    std::uint64_t declared_count = 0;
    const std::uint64_t t0 = NowNs();
    {
      Span root(tr, kElection);
      std::optional<net::SimNet> simnet;
      std::vector<std::unique_ptr<TimingTransport>> wraps(n);
      std::vector<std::unique_ptr<net::PeerNode>> nodes(n);
      std::vector<bool> alive(n, true);
      auto make_node = [&](net::PeerId i) {
        net::Transport* t = &simnet->at(i);
        if (tr != nullptr) {
          wraps[i] = std::make_unique<TimingTransport>(*t, *tr, cap);
          t = wraps[i].get();
        }
        return std::make_unique<net::PeerNode>(PeerConfigOf(config, ids[i]),
                                               *t, factory);
      };
      {
        Span s(tr, kNetSetup);
        simnet.emplace(SimNetConfigOf(config));
        for (net::PeerId p = 0; p < n; ++p) nodes[p] = make_node(p);
      }
      out.setup_ns = NowNs() - t0;

      celect::wire::Fnv1aStream fp;
      std::set<sim::Id> declared;
      auto fold_node = [&](net::PeerId p) {
        const std::uint64_t d = nodes[p]->EventDigest();
        for (int b = 0; b < 8; ++b) {
          fp.Update(static_cast<std::uint8_t>(d >> (8 * b)));
        }
        const net::TransportStats st = simnet->at(p).Stats();
        result.datagrams += st.datagrams_sent;
        result.retransmits += st.sessions.data_retransmits;
        result.suspicions += st.sessions.suspicions;
        result.delivered += st.sessions.delivered;
        out.events += nodes[p]->events_dispatched();
      };
      std::size_t chaos_idx = 0;
      for (net::PeerId p = 0; p < n; ++p) {
        Span s(tr, kNetPump);
        nodes[p]->Pump();
      }
      for (;;) {
        bool agreed = false;
        {
          Span s(tr, kNetLoop);
          for (net::PeerId p = 0; p < n; ++p) {
            if (alive[p] && nodes[p]->declared_self()) {
              declared.insert(nodes[p]->id());
            }
          }
          std::optional<sim::Id> belief;
          agreed = true;
          for (net::PeerId p = 0; p < n && agreed; ++p) {
            if (!alive[p]) continue;
            const auto l = nodes[p]->leader();
            if (!l || (belief && *belief != *l)) agreed = false;
            belief = l;
          }
          agreed = agreed && belief && declared.count(*belief) > 0;
          if (agreed) result.leader = *belief;
        }
        if (agreed) {
          result.agreed = true;
          break;
        }
        std::optional<net::Micros> next;
        {
          Span s(tr, kNetNextEvent);
          next = simnet->NextEvent();
        }
        {
          Span s(tr, kNetNextWake);
          for (net::PeerId p = 0; p < n; ++p) {
            if (!alive[p]) continue;
            const auto w = nodes[p]->NextWake();
            if (w && (!next || *w < *next)) next = w;
          }
        }
        if (chaos_idx < config.chaos.size() &&
            (!next || config.chaos[chaos_idx].at < *next)) {
          next = config.chaos[chaos_idx].at;
        }
        if (!next || *next > config.deadline_us) break;
        simnet->virtual_clock().AdvanceTo(*next);
        {
          Span s(tr, kNetLoop);
          while (chaos_idx < config.chaos.size() &&
                 config.chaos[chaos_idx].at <= simnet->virtual_clock().Now()) {
            // NetConfig schedules kills only; the comparison with
            // RunSimElection would catch a restart this loop does not
            // model.
            const net::ChaosEvent& ev = config.chaos[chaos_idx++];
            if (!alive[ev.node]) continue;
            fold_node(ev.node);
            simnet->Kill(ev.node);
            nodes[ev.node].reset();
            alive[ev.node] = false;
          }
        }
        {
          Span s(tr, kNetDeliverDue);
          simnet->DeliverDue();
        }
        for (net::PeerId p = 0; p < n; ++p) {
          if (!alive[p]) continue;
          Span s(tr, kNetPump);
          nodes[p]->Pump();
        }
      }
      {
        Span s(tr, kNetLoop);
        result.elapsed_us = simnet->virtual_clock().Now();
        for (net::PeerId p = 0; p < n; ++p) {
          if (!alive[p]) continue;
          fold_node(p);
          const auto st = simnet->at(p).Stats();
          rtt.insert(rtt.end(), st.sessions.rtt_samples.begin(),
                     st.sessions.rtt_samples.end());
        }
        result.fingerprint = fp.Digest64();
        declared_count = declared.size();
      }
      Span s(tr, kNetTeardown);
      nodes.clear();
      wraps.clear();
      simnet.reset();
    }
    out.wall_ns = NowNs() - t0;

    if (!rtt.empty()) {
      std::sort(rtt.begin(), rtt.end());
      result.rtt_p50_us = rtt[rtt.size() / 2];
      result.rtt_p99_us = rtt[rtt.size() * 99 / 100];
    }
    out.ok = result.agreed;
    if (!out.ok) out.why = "no agreement, seed " + std::to_string(config.seed);
    out.leader = result.leader;
    out.declarations = declared_count;
    out.elections = 1;
    out.messages = result.delivered;
    out.datagrams = result.datagrams;
    out.time_units = static_cast<double>(result.elapsed_us) /
                     static_cast<double>(config.unit_us);
    out.fingerprint = result.fingerprint;
    out.delivered = result.delivered;
    out.retransmits = result.retransmits;
    out.suspicions = result.suspicions;
    out.rtt_p50_us = result.rtt_p50_us;
    out.rtt_p99_us = result.rtt_p99_us;
    return out;
  }

  std::uint64_t seed_;
  std::size_t ft_proto_;
  sim::ProcessFactory factory_;
  std::vector<Outcome> loop_;  // RunLoop's untraced outcome per input
};

// ---------------------------------------------------------------------
// Replay probes: captured inputs through one layer at a time.

// Cost of one steady_clock read pair, subtracted from batch timings.
std::uint64_t ClockOverheadNs() {
  std::vector<std::uint64_t> d(2001);
  for (auto& x : d) {
    const std::uint64_t a = NowNs();
    x = NowNs() - a;
  }
  std::nth_element(d.begin(), d.begin() + 1000, d.end());
  return d[1000];
}

struct QueueReplay {
  double push_ns = 0, pop_ns = 0, cancel_ns = 0;
  std::uint64_t peak_size = 0;
  std::uint64_t pushes = 0, pops = 0, cancels = 0;
};

struct QueueOp {
  enum Kind : std::uint8_t { kPush, kPop, kCancel } kind;
  bool timer;
  std::int64_t at;
  std::uint32_t node;
  std::uint32_t timer_id;
};

// Rebuilds the runtime's queue traffic from a trace: wakeups, crashes
// and rejoins are queued up front; each admitted kSend pushes its
// delivery; each kTimerSet pushes a timer (kTimerCancel, or its node's
// crash, tombstones it); each dispatched record pops.
std::vector<QueueOp> QueueOps(const std::vector<sim::TraceRecord>& recs,
                              std::uint32_t* max_timer) {
  using K = sim::TraceRecord::Kind;
  std::unordered_map<std::uint64_t, std::int64_t> arrival;  // mid -> at
  std::unordered_map<std::uint64_t, std::int64_t> fire;     // timer -> at
  std::int64_t delay_sum = 0, delay_n = 0;
  std::unordered_map<std::uint64_t, std::int64_t> set_at;
  *max_timer = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    const bool send_time_drop = r.kind == K::kDrop && i > 0 &&
                                recs[i - 1].kind == K::kSend &&
                                recs[i - 1].mid == r.mid;
    if (r.kind == K::kDeliver || (r.kind == K::kDrop && !send_time_drop)) {
      arrival.emplace(r.mid, r.at.ticks());
    } else if (r.kind == K::kTimerSet) {
      set_at[r.mid] = r.at.ticks();
      *max_timer = std::max<std::uint32_t>(
          *max_timer, static_cast<std::uint32_t>(r.mid));
    } else if (r.kind == K::kTimerFire) {
      fire[r.mid] = r.at.ticks();
      delay_sum += r.at.ticks() - set_at[r.mid];
      ++delay_n;
    }
  }
  const std::int64_t mean_delay = delay_n > 0 ? delay_sum / delay_n : 0;

  std::vector<QueueOp> ops;
  for (const auto& r : recs) {
    if (r.kind == K::kWakeup || r.kind == K::kCrash || r.kind == K::kRejoin) {
      ops.push_back({QueueOp::kPush, false, r.at.ticks(), r.node, 0});
    }
  }
  std::map<sim::NodeId, std::set<std::uint32_t>> live_timers;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    const auto timer = static_cast<std::uint32_t>(r.mid);
    switch (r.kind) {
      case K::kSend: {
        const auto it = arrival.find(r.mid);
        const bool dropped_now = i + 1 < recs.size() &&
                                 recs[i + 1].kind == K::kDrop &&
                                 recs[i + 1].mid == r.mid;
        if (it != arrival.end() && !dropped_now) {
          ops.push_back({QueueOp::kPush, false, it->second, r.peer, 0});
        }
        break;
      }
      case K::kTimerSet: {
        const auto it = fire.find(r.mid);
        const std::int64_t at =
            it != fire.end() ? it->second : r.at.ticks() + mean_delay;
        ops.push_back({QueueOp::kPush, true, at, r.node, timer});
        live_timers[r.node].insert(timer);
        break;
      }
      case K::kTimerCancel:
        ops.push_back({QueueOp::kCancel, true, 0, r.node, timer});
        live_timers[r.node].erase(timer);
        break;
      case K::kCrash:
        ops.push_back({QueueOp::kPop, false, 0, r.node, 0});
        for (std::uint32_t t : live_timers[r.node]) {
          ops.push_back({QueueOp::kCancel, true, 0, r.node, t});
        }
        live_timers[r.node].clear();
        break;
      case K::kTimerFire:
        live_timers[r.node].erase(timer);
        ops.push_back({QueueOp::kPop, false, 0, r.node, 0});
        break;
      case K::kDeliver:
      case K::kWakeup:
      case K::kRejoin:
        ops.push_back({QueueOp::kPop, false, 0, r.node, 0});
        break;
      case K::kDrop:
        if (!(i > 0 && recs[i - 1].kind == K::kSend &&
              recs[i - 1].mid == r.mid)) {
          ops.push_back({QueueOp::kPop, false, 0, r.node, 0});
        }
        break;
      default:
        break;
    }
  }
  return ops;
}

// Times runs of same-kind operations as one batch each, so a clock read
// pair is paid per batch rather than per operation.
void ReplayQueue(const std::vector<QueueOp>& ops, std::uint32_t max_timer,
                 std::uint64_t clock_ns, QueueReplay& out) {
  sim::EventQueue q;
  std::vector<sim::EventTicket> tickets(max_timer + 1);
  std::vector<char> cancelled(max_timer + 1, 0);
  std::array<std::uint64_t, 3> ns{};
  std::size_t i = 0;
  while (i < ops.size()) {
    const QueueOp::Kind kind = ops[i].kind;
    const std::uint64_t t0 = NowNs();
    for (; i < ops.size() && ops[i].kind == kind; ++i) {
      const QueueOp& op = ops[i];
      switch (kind) {
        case QueueOp::kPush:
          if (op.timer) {
            tickets[op.timer_id] = q.PushTicketed(
                sim::Time::FromTicks(op.at),
                sim::TimerEvent{op.node, op.timer_id});
          } else {
            q.Push(sim::Time::FromTicks(op.at),
                   sim::DeliveryEvent{0, op.node, 1, 0, 0, 0, {}});
          }
          ++out.pushes;
          break;
        case QueueOp::kCancel:
          q.Cancel(tickets[op.timer_id]);
          cancelled[op.timer_id] = 1;
          ++out.cancels;
          break;
        case QueueOp::kPop:
          // Tombstones pop in order too; keep popping to a live event.
          for (;;) {
            const auto e = q.Pop();
            if (!e) break;
            ++out.pops;
            const auto* t = std::get_if<sim::TimerEvent>(&e->body);
            if (t == nullptr || cancelled[t->timer] == 0) break;
          }
          break;
      }
      out.peak_size = std::max<std::uint64_t>(out.peak_size, q.Size());
    }
    const std::uint64_t dt = NowNs() - t0;
    ns[kind] += dt > clock_ns ? dt - clock_ns : 0;
  }
  const std::uint64_t t0 = NowNs();
  while (q.Pop()) ++out.pops;
  ns[QueueOp::kPop] += NowNs() - t0;
  out.push_ns += static_cast<double>(ns[QueueOp::kPush]);
  out.pop_ns += static_cast<double>(ns[QueueOp::kPop]);
  out.cancel_ns += static_cast<double>(ns[QueueOp::kCancel]);
}

struct LinkOp {
  sim::NodeId from, to;
  sim::Time at;
  sim::DelayDecision d;
};

// The admitted sends of a trace, with the delay decisions the run's own
// delay model makes for them (drawn in send order, as the runtime does).
// Keeps replayed results observable, so the timed loops are not elided.
volatile std::int64_t g_sink = 0;

std::vector<LinkOp> LinkOps(const CapturedRun& run) {
  using K = sim::TraceRecord::Kind;
  const sim::NetworkConfig config = harness::BuildNetwork(run.options);
  std::map<std::pair<sim::NodeId, sim::NodeId>, std::uint64_t> sent;
  std::vector<LinkOp> ops;
  const auto& recs = run.records;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    if (r.kind != K::kSend) continue;
    if (i + 1 < recs.size() && recs[i + 1].kind == K::kDrop &&
        recs[i + 1].mid == r.mid) {
      continue;  // destination already dead: never admitted
    }
    const sim::MessageInfo info{r.node, r.peer, r.at,
                                sent[{r.node, r.peer}]++, nullptr};
    ops.push_back({r.node, r.peer, r.at, config.delays->Decide(info)});
  }
  return ops;
}

std::uint64_t ReplayLinks(const std::vector<LinkOp>& ops, std::uint32_t n) {
  sim::LinkTable links(n);
  std::int64_t sink = 0;
  const std::uint64_t t0 = NowNs();
  for (const LinkOp& op : ops) {
    const sim::LinkTable::LinkRef ref = links.Touch(op.from, op.to);
    sink += static_cast<std::int64_t>(links.SentCount(ref));
    sink += links.AdmitWithFaults(ref, op.from, op.to, op.at, op.d)
                .arrival.ticks();
  }
  const std::uint64_t dt = NowNs() - t0;
  g_sink = sink;
  return dt;
}

struct CodecReplay {
  double wire_encode_ns = 0, wire_decode_ns = 0, bytes_per_packet = 0;
  double frame_encode_ns = 0, frame_decode_ns = 0;
  bool ok = true;
};

CodecReplay ReplayCodecs(const std::vector<wire::Packet>& packets,
                         bool frames) {
  CodecReplay out;
  if (packets.empty()) return out;
  const double count = static_cast<double>(packets.size());
  std::vector<std::uint8_t> stream;
  stream.reserve(packets.size() * 64);
  std::vector<std::size_t> ends;
  ends.reserve(packets.size());
  std::uint64_t t0 = NowNs();
  for (const auto& p : packets) {
    wire::EncodeTo(p, stream);
    ends.push_back(stream.size());
  }
  out.wire_encode_ns = static_cast<double>(NowNs() - t0) / count;
  out.bytes_per_packet = static_cast<double>(stream.size()) / count;

  std::vector<std::optional<wire::Packet>> decoded(packets.size());
  t0 = NowNs();
  std::size_t begin = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    decoded[i] = wire::Decode(stream.data() + begin, ends[i] - begin);
    begin = ends[i];
  }
  out.wire_decode_ns = static_cast<double>(NowNs() - t0) / count;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (!decoded[i] || !(*decoded[i] == packets[i])) out.ok = false;
  }
  if (!frames) return out;

  // Data frames as a session sends them: seq, cumulative ack, sack bits,
  // Lamport clock and message uid, then the encoded packet.
  std::vector<std::vector<std::uint8_t>> payloads(packets.size());
  begin = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    auto& pl = payloads[i];
    wire::PutVarint(pl, i + 1);
    wire::PutVarint(pl, i);
    wire::PutVarint(pl, 0);
    wire::PutVarint(pl, 3 * i + 1);
    wire::PutVarint(pl, (std::uint64_t{7} << 20) + i);
    pl.insert(pl.end(), stream.begin() + static_cast<std::ptrdiff_t>(begin),
              stream.begin() + static_cast<std::ptrdiff_t>(ends[i]));
    begin = ends[i];
  }
  std::vector<std::uint8_t> wire_bytes;
  wire_bytes.reserve(stream.size() * 2 + packets.size() * 32);
  t0 = NowNs();
  for (const auto& pl : payloads) {
    net::EncodeFrame(net::FrameKind::kData, pl.data(), pl.size(), wire_bytes);
  }
  out.frame_encode_ns = static_cast<double>(NowNs() - t0) / count;
  net::FrameDecoder decoder;
  std::vector<net::Frame> got;
  got.reserve(packets.size());
  t0 = NowNs();
  decoder.PushBytes(wire_bytes.data(), wire_bytes.size(), got);
  out.frame_decode_ns = static_cast<double>(NowNs() - t0) / count;
  if (got.size() != packets.size() || decoder.errors() != 0) out.ok = false;
  for (std::size_t i = 0; out.ok && i < got.size(); ++i) {
    if (got[i].payload != payloads[i]) out.ok = false;
  }
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// ---------------------------------------------------------------------
// Aggregation and output.

// Sums over the deterministic prefix.
struct Ledger {
  std::uint64_t inputs = 0, elections = 0, messages = 0, datagrams = 0;
  std::uint64_t events = 0;
  double time_units = 0;
  std::int64_t unavailable_ticks = 0, horizon_ticks = 0;
  obs::Histogram latency;
  celect::wire::Fnv1aStream digest;

  void Add(const Outcome& o) {
    ++inputs;
    elections += o.elections;
    messages += o.messages;
    datagrams += o.datagrams;
    events += o.events;
    time_units += o.time_units;
    unavailable_ticks += o.unavailable_ticks;
    horizon_ticks += o.horizon_ticks;
    latency.Merge(o.latency);
    for (std::uint64_t v : {o.fingerprint, o.leader, o.messages}) {
      for (int b = 0; b < 8; ++b) {
        digest.Update(static_cast<std::uint8_t>(v >> (8 * b)));
      }
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

// The highest percentile with at least ten samples beyond it.
struct Tail {
  bool valid = false;
  double value = 0, percentile = 0;
};
Tail TailOf(std::vector<double> v) {
  Tail t;
  if (v.size() < 11) return t;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() - 10;
  t.valid = true;
  t.value = v[k - 1];
  t.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(v.size());
  return t;
}

// The process's resident high-water mark. getrusage's ru_maxrss is not
// used: it keeps the pre-exec peak of the parent that spawned us.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 10) errors.push_back(why);
  }
};

void PrintLine(const Metric& m, const std::string& note = "") {
  std::printf("  %-40s %16s %s%s\n", m.name.c_str(), Num(m.value).c_str(),
              m.unit.c_str(), note.c_str());
}

std::string JsonMetrics(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << Num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

void PrintDeterministic(const std::string& workload, std::uint64_t seed,
                        const Ledger& l, const Workload& w) {
  const double e = static_cast<double>(l.elections);
  std::vector<Metric> det = {
      {"messages_per_election", Ratio(static_cast<double>(l.messages), e),
       "msgs"},
      {"time_units_per_election", Ratio(l.time_units, e), "units"},
      {"datagrams_per_election", Ratio(static_cast<double>(l.datagrams), e),
       "dgrams"},
      {"events_per_election", Ratio(static_cast<double>(l.events), e),
       "events"},
  };
  if (w.is_churn()) {
    det.push_back({"reelection_p99_units",
                   static_cast<double>(l.latency.ApproxQuantile(0.99)) /
                       static_cast<double>(sim::Time::kTicksPerUnit),
                   "units"});
    det.push_back({"unavailable_pct",
                   100.0 * Ratio(static_cast<double>(l.unavailable_ticks),
                                 static_cast<double>(l.horizon_ticks)),
                   "%"});
  }
  std::printf("deterministic metrics over the first %llu inputs:\n",
              static_cast<unsigned long long>(l.inputs));
  for (const auto& m : det) PrintLine(m);
  std::printf(
      "deterministic {\"workload\": \"%s\", \"seed\": %llu, \"inputs\": "
      "%llu, \"elections\": %llu, \"digest\": \"%016llx\", \"metrics\": "
      "%s}\n",
      workload.c_str(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(l.inputs),
      static_cast<unsigned long long>(l.elections),
      static_cast<unsigned long long>(l.digest.Digest64()),
      JsonMetrics(det).c_str());
}

void PrintResult(const Result& r, const std::vector<Metric>& metrics) {
  for (const auto& e : r.errors) std::printf("FAILED: %s\n", e.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), JsonMetrics(metrics).c_str());
  std::fflush(stdout);
}

void Check(const Outcome& o, Result& r) {
  ++r.attempted;
  if (!o.ok) {
    ++r.failed;
    r.Fail(o.why);
  }
}

// The timed loop: whole passes over the prefix inputs until `seconds`
// have passed, never fewer than kMinPasses. Every pass does identical
// work, and load from outside the process can only slow an election
// down, so each input's fastest repetition stands for it: throughput,
// p50 and setup_s are taken over those. Pass 1 feeds the ledger; every
// later pass must reproduce it exactly.
class Passes {
 public:
  Passes(Workload& w, double seconds, Ledger& ledger, Result& res)
      : w_(w),
        ledger_(ledger),
        res_(res),
        deadline_(NowNs() + static_cast<std::uint64_t>(seconds * 1e9)) {}

  bool Next() {
    if (pass_ >= kMinPasses && NowNs() >= deadline_) return false;
    ++pass_;
    return true;
  }

  void Record(std::size_t i, const Outcome& o) {
    Check(o, res_);
    if (pass_ == 1) {
      ledger_.Add(o);
      first_.push_back(o);
    } else if (!SameDeterministic(first_[i], o)) {
      ++res_.failed;
      res_.Fail("input " + std::to_string(i) + " repeated differently");
    }
  }

  std::size_t count() const { return pass_; }
  std::size_t inputs() const { return w_.prefix(); }

 private:
  static constexpr std::size_t kMinPasses = 5;
  Workload& w_;
  Ledger& ledger_;
  Result& res_;
  std::uint64_t deadline_;
  std::size_t pass_ = 0;
  std::vector<Outcome> first_;
};

// --trace 0: the closed loop with nothing attached.
std::vector<Metric> RunPlain(Workload& w, double seconds, Ledger& ledger,
                             Result& res) {
  Passes passes(w, seconds, ledger, res);
  const std::size_t inputs = passes.inputs();
  std::vector<std::uint64_t> best_wall(inputs, UINT64_MAX);
  std::vector<std::uint64_t> best_setup(inputs, UINT64_MAX);
  std::vector<std::uint64_t> elections(inputs);
  // A storm's sample is its wall time per completed election.
  const auto per_election_ms = [&](std::uint64_t ns, std::size_t i) {
    return static_cast<double>(ns) / 1e6 /
           static_cast<double>(std::max<std::uint64_t>(1, elections[i]));
  };
  std::vector<double> wall_ms;  // every sample, for the tail
  const std::uint64_t t0 = NowNs();
  while (passes.Next()) {
    for (std::size_t i = 0; i < inputs; ++i) {
      const Outcome o = w.Run(i, nullptr, nullptr);
      passes.Record(i, o);
      elections[i] = o.elections;
      best_wall[i] = std::min(best_wall[i], o.wall_ns);
      best_setup[i] = std::min(best_setup[i], o.setup_ns);
      wall_ms.push_back(per_election_ms(o.wall_ns, i));
    }
  }
  const double loop_s = static_cast<double>(NowNs() - t0) / 1e9;
  double best_s = 0;
  std::vector<double> best_ms, setup_ns;
  for (std::size_t i = 0; i < inputs; ++i) {
    best_s += static_cast<double>(best_wall[i]) / 1e9;
    best_ms.push_back(per_election_ms(best_wall[i], i));
    setup_ns.push_back(static_cast<double>(best_setup[i]));
  }
  const double e = static_cast<double>(ledger.elections);
  std::vector<Metric> m = {
      {"elections_per_s", e / best_s, "1/s"},
      {"election_wall_p50_ms", Median(best_ms), "ms"},
      {"sim_events_per_s", static_cast<double>(ledger.events) / best_s, "1/s"},
      {"setup_s", Median(setup_ns) / 1e9, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"messages_per_election",
       Ratio(static_cast<double>(ledger.messages), e), "msgs"},
      {"time_units_per_election", Ratio(ledger.time_units, e), "units"},
      {"datagrams_per_election",
       Ratio(static_cast<double>(ledger.datagrams), e), "dgrams"},
  };
  std::printf("end-to-end (%zu passes over %zu inputs, %zu samples, %.3f s):\n",
              passes.count(), passes.inputs(), wall_ms.size(), loop_s);
  for (const auto& x : m) PrintLine(x);
  // Reported, not gated: on a shared host the tail moves with outside
  // load by more than any usable bound (see perfbench/README.md).
  const Tail tail = TailOf(wall_ms);
  if (tail.valid) {
    char note[96];
    std::snprintf(note, sizeof note, "  (p%.2f of %zu samples, 10 beyond)",
                  tail.percentile, wall_ms.size());
    PrintLine({"election_wall_tail_ms", tail.value, "ms"}, note);
  }
  PrintLine({"election_fail_ratio",
             Ratio(static_cast<double>(res.failed),
                   static_cast<double>(res.attempted)),
             "ratio"});
  return m;
}

// --trace 1: untraced/traced pairs, then the replay probes.
std::vector<Metric> RunTraced(Workload& w, double seconds, Ledger& ledger,
                              Result& res) {
  const auto names = ProtocolNames();
  Tracer tr(names.size());
  std::uint64_t plain_ns = 0, traced_ns = 0, events = 0, samples = 0;
  struct {
    std::uint64_t datagrams = 0, delivered = 0, retransmits = 0,
                  suspicions = 0;
    double rtt_p50_us = 0, rtt_p99_us = 0;
  } session;
  Passes passes(w, seconds, ledger, res);
  while (passes.Next()) {
    for (std::size_t i = 0; i < passes.inputs(); ++i) {
      const Outcome plain = w.Run(i, nullptr, nullptr);
      const Outcome traced = w.Run(i, &tr, nullptr);
      passes.Record(i, traced);
      if (!SameDeterministic(plain, traced)) {
        ++res.failed;
        res.Fail("traced run of input " + std::to_string(i) +
                 " differs from the untraced run");
      }
      plain_ns += plain.wall_ns;
      traced_ns += traced.wall_ns;
      events += traced.events;
      ++samples;
      if (w.is_net()) {
        session.datagrams += traced.datagrams;
        session.delivered += traced.delivered;
        session.retransmits += traced.retransmits;
        session.suspicions += traced.suspicions;
        session.rtt_p50_us += static_cast<double>(traced.rtt_p50_us);
        session.rtt_p99_us += static_cast<double>(traced.rtt_p99_us);
      }
    }
  }

  // Capture runs: a throwaway tracer, a traced Runtime (sim) and the
  // packets handed to Send; each must reproduce its untraced outcome.
  Capture cap;
  for (std::size_t i = 0; i < w.captures(); ++i) {
    Tracer unused(names.size());
    const Outcome plain = w.Run(i, nullptr, nullptr);
    const Outcome captured = w.Run(i, &unused, &cap);
    if (!SameDeterministic(plain, captured)) {
      res.Fail("capture run of input " + std::to_string(i) + " differs");
    }
  }

  struct ReplayInput {
    std::vector<QueueOp> queue_ops;
    std::uint32_t max_timer = 0;
    std::vector<LinkOp> link_ops;
    std::uint32_t n = 0;
  };
  std::vector<ReplayInput> inputs;
  for (const CapturedRun& run : cap.runs) {
    ReplayInput in;
    in.queue_ops = QueueOps(run.records, &in.max_timer);
    in.link_ops = LinkOps(run);
    in.n = run.options.n;
    inputs.push_back(std::move(in));
  }
  const std::uint64_t clock_ns = ClockOverheadNs();
  constexpr int kReps = 5;
  std::vector<double> push, pop, cancel, admit;
  QueueReplay q;
  for (int rep = 0; rep < kReps; ++rep) {
    q = QueueReplay{};
    std::uint64_t link_ns = 0, link_ops = 0;
    for (const ReplayInput& in : inputs) {
      ReplayQueue(in.queue_ops, in.max_timer, clock_ns, q);
      link_ns += ReplayLinks(in.link_ops, in.n);
      link_ops += in.link_ops.size();
    }
    push.push_back(Ratio(q.push_ns, static_cast<double>(q.pushes)));
    pop.push_back(Ratio(q.pop_ns, static_cast<double>(q.pops)));
    cancel.push_back(Ratio(q.cancel_ns, static_cast<double>(q.cancels)));
    admit.push_back(Ratio(static_cast<double>(link_ns),
                          static_cast<double>(link_ops)));
  }
  std::vector<CodecReplay> codecs;
  for (int rep = 0; rep < kReps; ++rep) {
    codecs.push_back(ReplayCodecs(cap.packets, w.is_net()));
    if (!codecs.back().ok) res.Fail("codec replay did not round-trip");
  }
  auto codec_median = [&](double CodecReplay::*field) {
    std::vector<double> v;
    for (const auto& c : codecs) v.push_back(c.*field);
    return Median(v);
  };

  const auto& self = tr.self_ns;
  const auto& calls = tr.calls;
  const double n = static_cast<double>(samples);
  auto per_sample = [&](double v) { return v / n; };
  auto per_call = [&](Layer l, double count) {
    return Ratio(static_cast<double>(self[l]), count);
  };
  const double sim_events = static_cast<double>(events);
  std::vector<Metric> m = {
      {"sim.setup.build_ns", per_sample(static_cast<double>(self[kBuild])),
       "ns"},
      {"sim.setup.runtime_ctor_ns",
       per_sample(static_cast<double>(self[kCtor])), "ns"},
      {"sim.teardown_ns", per_sample(static_cast<double>(self[kTeardown])),
       "ns"},
      {"sim.events", per_sample(sim_events), "count"},
      {"sim.dispatch_self_ns_per_event", per_call(kRun, sim_events), "ns"},
      {"sim.send_calls", per_sample(static_cast<double>(tr.messages_sent)),
       "count"},
      {"sim.send_ns_per_call",
       per_call(kSend, static_cast<double>(tr.messages_sent)), "ns"},
      {"sim.timer_set_calls", per_sample(static_cast<double>(tr.timer_sets)),
       "count"},
      {"sim.timer_cancel_calls",
       per_sample(static_cast<double>(tr.timer_cancels)), "count"},
      {"sim.timer_ns_per_call",
       per_call(kTimer,
                static_cast<double>(tr.timer_sets + tr.timer_cancels)),
       "ns"},
      {"sim.counter_calls", per_sample(static_cast<double>(calls[kCounter])),
       "count"},
      {"sim.counter_ns_per_call",
       per_call(kCounter, static_cast<double>(calls[kCounter])), "ns"},
      {"sim.ctx_other_ns", per_sample(static_cast<double>(self[kCtxOther])),
       "ns"},
      {"sim.event_queue.push_ns", Median(push), "ns"},
      {"sim.event_queue.pop_ns", Median(pop), "ns"},
      {"sim.event_queue.cancel_ns", Median(cancel), "ns"},
      {"sim.event_queue.peak_size", static_cast<double>(q.peak_size),
       "count"},
      {"sim.link.admit_ns", Median(admit), "ns"},
      {"proto.handler_calls",
       per_sample(static_cast<double>(calls[kHandler])), "count"},
      {"proto.handler_self_ns_per_call",
       per_call(kHandler, static_cast<double>(calls[kHandler])), "ns"},
  };
  for (std::size_t p = 0; p < names.size(); ++p) {
    m.push_back({"proto." + names[p] + ".handler_self_ns",
                 Ratio(static_cast<double>(tr.proto_self_ns[p]),
                       static_cast<double>(tr.proto_calls[p])),
                 "ns"});
  }
  std::vector<Metric> rest = {
      {"analysis.after_event_calls",
       per_sample(static_cast<double>(calls[kObserver])), "count"},
      {"analysis.after_event_ns_per_call",
       per_call(kObserver, static_cast<double>(calls[kObserver])), "ns"},
      {"net.setup_ns", per_sample(static_cast<double>(self[kNetSetup])), "ns"},
      {"net.teardown_ns", per_sample(static_cast<double>(self[kNetTeardown])),
       "ns"},
      {"net.loop_ns", per_sample(static_cast<double>(self[kNetLoop])),
       "ns"},
      {"net.transport.send_calls",
       per_sample(static_cast<double>(calls[kNetSend])), "count"},
      {"net.transport.send_ns_per_call",
       per_call(kNetSend, static_cast<double>(calls[kNetSend])), "ns"},
      {"net.transport.poll_calls",
       per_sample(static_cast<double>(calls[kNetPoll])), "count"},
      {"net.transport.poll_ns_per_call",
       per_call(kNetPoll, static_cast<double>(calls[kNetPoll])), "ns"},
      {"net.transport.events_per_poll",
       Ratio(static_cast<double>(tr.poll_events),
             static_cast<double>(calls[kNetPoll])),
       "count"},
      {"net.simnet.deliver_due_ns",
       per_sample(static_cast<double>(self[kNetDeliverDue])), "ns"},
      {"net.simnet.next_event_ns",
       per_sample(static_cast<double>(self[kNetNextEvent])), "ns"},
      {"net.peer_node.next_wake_ns",
       per_sample(static_cast<double>(self[kNetNextWake])), "ns"},
      {"net.peer_node.pump_calls",
       per_sample(static_cast<double>(calls[kNetPump])), "count"},
      {"net.peer_node.pump_self_ns",
       per_sample(static_cast<double>(self[kNetPump])), "ns"},
      {"net.frame.encode_ns", codec_median(&CodecReplay::frame_encode_ns),
       "ns"},
      {"net.frame.decode_ns", codec_median(&CodecReplay::frame_decode_ns),
       "ns"},
      {"wire.encode_ns", codec_median(&CodecReplay::wire_encode_ns), "ns"},
      {"wire.decode_ns", codec_median(&CodecReplay::wire_decode_ns), "ns"},
      {"wire.bytes_per_packet", codec_median(&CodecReplay::bytes_per_packet),
       "bytes"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  const double delivered = static_cast<double>(session.delivered);
  std::vector<Metric> tail = {
      {"net.session.datagrams_per_delivered",
       Ratio(static_cast<double>(session.datagrams), delivered), "ratio"},
      {"net.session.retransmits",
       per_sample(static_cast<double>(session.retransmits)), "count"},
      {"net.session.suspicions",
       per_sample(static_cast<double>(session.suspicions)), "count"},
      {"net.session.rtt_p50_us", per_sample(session.rtt_p50_us), "us"},
      {"net.session.rtt_p99_us", per_sample(session.rtt_p99_us), "us"},
      {"obs.trace_ns_per_event",
       (static_cast<double>(traced_ns) - static_cast<double>(plain_ns)) /
           std::max(1.0, static_cast<double>(events)),
       "ns"},
      {"residual_ns", per_sample(static_cast<double>(self[kElection])), "ns"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  std::unique_ptr<Workload> w;
  if (workload == "sim_flood" || workload == "sim_sweep") {
    w = std::make_unique<SimWorkload>(seed, workload == "sim_flood");
  } else if (workload == "churn_storm") {
    w = std::make_unique<ChurnWorkload>(seed);
  } else if (workload == "net_chaos") {
    w = std::make_unique<NetWorkload>(seed);
  }
  if (w == nullptr || argc % 2 == 0 || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: celect_perfbench --workload "
                 "<sim_flood|sim_sweep|net_chaos|churn_storm> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }

  std::printf("workload %s (seed %llu, trace %d): %s\n", workload.c_str(),
              static_cast<unsigned long long>(seed), trace,
              w->Describe().c_str());
  Result res;
  if (const std::string why = w->Prepare(); !why.empty()) res.Fail(why);
  // Warm-up: registry statics, allocator arenas, page faults.
  if (!w->Run(0, nullptr, nullptr).ok) res.Fail("warm-up election failed");

  Ledger ledger;
  const std::vector<Metric> metrics =
      trace == 0 ? RunPlain(*w, seconds, ledger, res)
                 : RunTraced(*w, seconds, ledger, res);
  if (trace == 1) {
    std::printf("per-layer:\n");
    for (const auto& m : metrics) PrintLine(m);
  }
  PrintDeterministic(workload, seed, ledger, *w);
  PrintResult(res, metrics);
  return res.correct ? 0 : 1;
}
