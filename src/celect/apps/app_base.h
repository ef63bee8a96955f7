// Composition of an application protocol over an election protocol.
//
// The paper (§1, §6) notes spanning-tree construction, global-function
// computation, etc. are message/time-equivalent to leader election. Each
// app here wraps an arbitrary election Process: protocol messages (type
// < kAppTypeBase) are passed through to the inner process; the wrapper
// observes the inner DeclareLeader through an intercepting Context and
// then runs its own O(N)-message, O(1)-time follow-up round using types
// >= kAppTypeBase.
#pragma once

#include <memory>
#include <utility>

#include "celect/sim/process.h"
#include "celect/util/check.h"

namespace celect::apps {

// App message types live above this to stay disjoint from any election
// protocol's types.
inline constexpr std::uint16_t kAppTypeBase = 1000;

class ElectionAppProcess : public sim::Process {
 public:
  ElectionAppProcess(std::unique_ptr<sim::Process> inner)
      : inner_(std::move(inner)) {
    CELECT_CHECK(inner_ != nullptr);
  }

  void OnWakeup(sim::Context& ctx) final {
    InterceptingContext ictx(*this, ctx);
    inner_->OnWakeup(ictx);
  }

  void OnMessage(sim::Context& ctx, sim::Port from_port,
                 const wire::Packet& p) final {
    if (p.type >= kAppTypeBase) {
      OnAppMessage(ctx, from_port, p);
      return;
    }
    InterceptingContext ictx(*this, ctx);
    inner_->OnMessage(ictx, from_port, p);
  }

  // Apps themselves arm no timers and keep no per-peer state; timers,
  // crash hints and revivals all belong to the inner election protocol.
  void OnTimer(sim::Context& ctx, sim::TimerId timer) final {
    InterceptingContext ictx(*this, ctx);
    inner_->OnTimer(ictx, timer);
  }

  void OnPeerSuspected(sim::Context& ctx, sim::Port port) final {
    InterceptingContext ictx(*this, ctx);
    inner_->OnPeerSuspected(ictx, port);
  }

  void OnRejoin(sim::Context& ctx) final {
    InterceptingContext ictx(*this, ctx);
    inner_->OnRejoin(ictx);
  }

  bool leader_here() const { return leader_here_; }

  // The app layer adds no gauges of its own; invariant checking sees the
  // wrapped election protocol's observables.
  sim::ProtocolObservables Observe() const final { return inner_->Observe(); }

  std::string DescribeState() const final { return inner_->DescribeState(); }

 protected:
  // Called exactly when the inner protocol declares this node leader;
  // the app starts its follow-up round here. The leader declaration is
  // already forwarded to the runtime.
  virtual void OnElected(sim::Context& ctx) = 0;

  // App-typed traffic (type >= kAppTypeBase).
  virtual void OnAppMessage(sim::Context& ctx, sim::Port from_port,
                            const wire::Packet& p) = 0;

 private:
  // Forwards everything to the real context but lets the wrapper see
  // DeclareLeader.
  class InterceptingContext : public sim::ForwardingContext {
   public:
    InterceptingContext(ElectionAppProcess& app, sim::Context& real)
        : ForwardingContext(real), app_(app) {}

    void DeclareLeader() override {
      real().DeclareLeader();
      if (!app_.leader_here_) {
        app_.leader_here_ = true;
        app_.OnElected(real());
      }
    }

   private:
    ElectionAppProcess& app_;
  };

  std::unique_ptr<sim::Process> inner_;
  bool leader_here_ = false;
};

}  // namespace celect::apps
