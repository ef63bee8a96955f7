// The protocol-facing API.
//
// A Process is one protocol instance running at one node. It sees only
// what the model allows: its own identity, N, local port numbers, and the
// packets that arrive. It cannot read neighbour identities off a port —
// learning them costs messages, which is the whole game.
//
// The paper's protocols are purely message-driven (they use no
// timeouts): the runtime calls OnWakeup for spontaneous wakeups of base
// nodes and OnMessage for deliveries. Passive nodes receive OnMessage
// without ever getting OnWakeup — the paper's "wakes up on receiving a
// message of the protocol". Timers (SetTimer/OnTimer) exist for
// protocols that must survive mid-run crashes: timeout-and-retry is the
// only way to make progress past a peer that died mid-handshake. A
// protocol that never arms a timer behaves exactly as before.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "celect/obs/phase.h"
#include "celect/sim/time.h"
#include "celect/sim/types.h"
#include "celect/util/check.h"
#include "celect/wire/packet.h"

namespace celect::sim {

// A pre-resolved protocol counter: the name plus (when the context
// supports interning) a dense slot into the run's Metrics. Protocols
// resolve once via Context::ResolveCounter and record through the ref —
// the per-event path is then an array bump, not a string lookup. A ref
// from a context that doesn't intern keeps slot == kUnresolved and falls
// back to the string path, so the same protocol code runs everywhere.
struct CounterRef {
  static constexpr std::uint32_t kUnresolved = 0xFFFFFFFFu;
  std::string_view name;
  std::uint32_t slot = kUnresolved;
};

class Context {
 public:
  virtual ~Context() = default;

  // Internal address — for debugging/tracing only; protocols must not
  // base decisions on it (identities are the only comparable values).
  virtual NodeId address() const = 0;
  virtual Id id() const = 0;
  virtual std::uint32_t n() const = 0;
  virtual Time now() const = 0;
  virtual bool has_sense_of_direction() const = 0;

  // Sends on a specific port. Under sense of direction, port d is the
  // edge to the node at Hamiltonian distance d, so this doubles as
  // "send to i[d]".
  virtual void Send(Port port, wire::Packet p) = 0;

  // No host implements this: a protocol that walks untraversed edges
  // keeps its own record of them and sends with Send. The declaration
  // stays only because perfbench's TimingContext still overrides it; the
  // next change to the benchmark drops that override, and then this.
  virtual std::optional<Port> SendFresh(wire::Packet) {
    CELECT_CHECK(false) << "Context::SendFresh has no host: send on an "
                           "explicit port with Send";
    return std::nullopt;
  }

  // Sends on all N-1 ports (protocol D's broadcast).
  virtual void SendAll(wire::Packet p) = 0;

  // Arms a one-shot timer firing `delay` from now via Process::OnTimer.
  // Returns a handle for CancelTimer. A timer on a node that crashes
  // before it fires is swallowed.
  virtual TimerId SetTimer(Time delay) = 0;

  // Cancels a timer armed by this node. Cancelling an already-fired or
  // already-cancelled timer is a no-op.
  virtual void CancelTimer(TimerId timer) = 0;

  // Announces this node as the leader. The runtime records every
  // declaration; the single-leader invariant is checked by callers.
  virtual void DeclareLeader() = 0;

  // Records a lease lifecycle event (granted/renewed/expired/revoked)
  // into the run's per-cause lease counters. Default: ignore — only the
  // asynchronous runtime accounts leases; scripted and synchronous
  // contexts have no lease layer.
  virtual void RecordLease(LeaseEvent event) { (void)event; }

  // Protocol-specific counters surfaced in RunResult (e.g. max forwarded
  // messages in flight). Monotonic add.
  virtual void AddCounter(std::string_view name, std::int64_t delta) = 0;
  // Keeps the running max of a protocol-specific gauge.
  virtual void MaxCounter(std::string_view name, std::int64_t value) = 0;

  // Resolves a counter name once so per-event records skip the string
  // path. Contexts without a metrics backend keep the default, which
  // returns an unresolved ref — the CounterRef overloads below then
  // forward to the string entry points, preserving behaviour.
  virtual CounterRef ResolveCounter(std::string_view name) {
    return CounterRef{name, CounterRef::kUnresolved};
  }
  virtual void AddCounter(const CounterRef& c, std::int64_t delta) {
    AddCounter(c.name, delta);
  }
  virtual void MaxCounter(const CounterRef& c, std::int64_t value) {
    MaxCounter(c.name, value);
  }

  // Marks the start/end of a protocol phase span (obs/phase.h taxonomy;
  // `level` distinguishes doubling levels). Spans nest; EndPhase closes
  // the innermost open span of the given phase (and anything nested
  // inside it), and is a no-op when none is open, so losing candidates
  // can close defensively. Purely observational — the asynchronous
  // runtime aggregates spans into RunResult::phases and the trace;
  // scripted and synchronous contexts ignore them.
  virtual void BeginPhase(obs::PhaseId phase, std::int64_t level) {
    (void)phase;
    (void)level;
  }
  void BeginPhase(obs::PhaseId phase) { BeginPhase(phase, 0); }
  virtual void EndPhase(obs::PhaseId phase) { (void)phase; }

  std::uint32_t port_count() const { return n() - 1; }
};

// A Context that forwards every call to another one. Layers that wrap
// an inner process (the app wrapper, the lease engine) derive from it
// and override only the calls they change, so a Context call added
// later reaches the real context through every wrapper.
class ForwardingContext : public Context {
 public:
  explicit ForwardingContext(Context& real) : real_(real) {}

  NodeId address() const override { return real_.address(); }
  Id id() const override { return real_.id(); }
  std::uint32_t n() const override { return real_.n(); }
  Time now() const override { return real_.now(); }
  bool has_sense_of_direction() const override {
    return real_.has_sense_of_direction();
  }
  void Send(Port port, wire::Packet p) override {
    real_.Send(port, std::move(p));
  }
  void SendAll(wire::Packet p) override { real_.SendAll(std::move(p)); }
  TimerId SetTimer(Time delay) override { return real_.SetTimer(delay); }
  void CancelTimer(TimerId timer) override { real_.CancelTimer(timer); }
  void DeclareLeader() override { real_.DeclareLeader(); }
  void RecordLease(LeaseEvent event) override { real_.RecordLease(event); }
  void AddCounter(std::string_view name, std::int64_t delta) override {
    real_.AddCounter(name, delta);
  }
  void MaxCounter(std::string_view name, std::int64_t value) override {
    real_.MaxCounter(name, value);
  }
  CounterRef ResolveCounter(std::string_view name) override {
    return real_.ResolveCounter(name);
  }
  void AddCounter(const CounterRef& c, std::int64_t delta) override {
    real_.AddCounter(c, delta);
  }
  void MaxCounter(const CounterRef& c, std::int64_t value) override {
    real_.MaxCounter(c, value);
  }
  using Context::BeginPhase;
  void BeginPhase(obs::PhaseId phase, std::int64_t level) override {
    real_.BeginPhase(phase, level);
  }
  void EndPhase(obs::PhaseId phase) override { real_.EndPhase(phase); }

 protected:
  Context& real() const { return real_; }

 private:
  Context& real_;
};

// A protocol's monotone gauges: an inline list of (name, value) pairs
// with a fixed capacity, so building one never touches the heap. The
// widest protocol publishes 5; adding a gauge past kCapacity CHECK-fails.
class GaugeList {
 public:
  using Gauge = std::pair<const char*, std::int64_t>;
  static constexpr std::size_t kCapacity = 8;

  GaugeList() = default;
  GaugeList(std::initializer_list<Gauge> gauges) {
    for (const auto& [name, value] : gauges) emplace_back(name, value);
  }

  void emplace_back(const char* name, std::int64_t value) {
    CELECT_CHECK(size_ < kCapacity)
        << "more than " << kCapacity << " monotone gauges";
    items_[size_++] = Gauge{name, value};
  }

  std::size_t size() const { return size_; }
  const Gauge& operator[](std::size_t i) const { return items_[i]; }
  const Gauge* begin() const { return items_.data(); }
  const Gauge* end() const { return items_.data() + size_; }

 private:
  std::array<Gauge, kCapacity> items_{};
  std::size_t size_ = 0;
};

// What a protocol instance exposes to the invariant checker
// (analysis/invariants.h). Built once per dispatched event (see
// RunInspect::Observed) without heap allocation.
struct ProtocolObservables {
  // Named per-node gauges that must never decrease over a run: capture
  // levels, phase indices, accept counts. Names must be stable for the
  // lifetime of the node and point at static storage (string literals):
  // checkers keep the pointer. A node revived by a RejoinEvent restarts
  // from a fresh process, so checkers reset its baselines at revival.
  GaugeList monotone;
  // Whether this node has reached a terminal state (leader, killed,
  // captured, passive bystander). nullopt: the protocol makes no claim,
  // and quiescence checks skip the node.
  std::optional<bool> terminated;
  // Set while this node believes it holds the leader lease for `term`,
  // valid until `deadline` (sim time, inclusive). The at-most-one-
  // valid-holder invariant compares claims across live nodes after
  // every event; a claim whose deadline has passed is not a violation —
  // it is an expired lease the holder has not yet noticed.
  struct LeaseClaim {
    std::int64_t term = 0;
    Time deadline = Time::Zero();
  };
  std::optional<LeaseClaim> lease;
};

class Process {
 public:
  virtual ~Process() = default;

  // Spontaneous wakeup (this node is a base node).
  virtual void OnWakeup(Context& ctx) = 0;

  // A packet arrived on `from_port`. Replies go back on the same port.
  virtual void OnMessage(Context& ctx, Port from_port,
                         const wire::Packet& p) = 0;

  // A timer armed via Context::SetTimer fired. Default: ignore (the
  // paper's protocols never arm one).
  virtual void OnTimer(Context& ctx, TimerId timer) {
    (void)ctx;
    (void)timer;
  }

  // The transport suspects the node behind `port` has crashed (its
  // reliability session exhausted a retransmit budget with no ack
  // progress). A *hint*, not an oracle: the peer may merely be slow or
  // partitioned, and may ack again later. Fault-tolerant layers treat
  // it like an early timer — kick their recovery path for that port —
  // while the paper's crash-free protocols ignore it. Only transports
  // with a reliability layer (net/) ever raise it; the in-simulator
  // delivery model has no retransmits and never calls it.
  virtual void OnPeerSuspected(Context& ctx, Port port) {
    (void)ctx;
    (void)port;
  }

  // This node was just revived by a RejoinEvent. Called once, on the
  // *fresh* process instance the runtime built to replace the crashed
  // one — there is no state to recover; the hook exists so churn-aware
  // layers can arm timers or start a quarantine ("grey") period before
  // re-engaging. Default: ignore — the revived node stays passive until
  // a message reaches it, which is exactly the paper's wakeup rule.
  virtual void OnRejoin(Context& ctx) { (void)ctx; }

  // Human-readable snapshot of protocol state, for post-mortems and
  // debugging tools. Optional.
  virtual std::string DescribeState() const { return ""; }

  // Machine-checkable snapshot for the invariant registry. Optional —
  // the default exposes nothing and every invariant that needs it is
  // skipped for this node.
  virtual ProtocolObservables Observe() const { return {}; }
};

// Builds the process for the node with the given address/identity.
struct ProcessInit {
  NodeId address;
  Id id;
  std::uint32_t n;
};

using ProcessFactory =
    std::function<std::unique_ptr<Process>(const ProcessInit&)>;

}  // namespace celect::sim
