// Link-delay policies.
//
// The model (§2) bounds every message delay by one time unit and the
// inter-message spacing on a link by one time unit. Time complexity is
// the worst case over all delay assignments, so the simulator lets a
// DelayModel choose, per message, a transit delay d ∈ (0, 1] and a
// minimum spacing s ∈ [0, 1] behind the previous message on the same
// directed link:
//
//   arrival = max(send_time + d, previous_arrival + s)
//
// With d = s = 1 (UnitDelayModel) every link behaves like a one-message-
// per-unit pipe — exactly the adversary behind the paper's congestion
// pathologies (the O(N)-forwarding example in §4), and the one the §5
// lower-bound adversary runs under. Random and eager models cover the
// benign part of the space; FunctionDelayModel lets tests script
// arbitrary schedules.
#pragma once

#include <functional>
#include <memory>

#include "celect/sim/time.h"
#include "celect/sim/types.h"
#include "celect/util/rng.h"
#include "celect/wire/packet.h"

namespace celect::sim {

struct DelayDecision {
  Time transit;  // in (0, 1] unless a test deliberately violates the model
  Time spacing;  // in [0, 1]
};

struct MessageInfo {
  NodeId from;
  NodeId to;
  Time send_time;
  std::uint64_t link_seq;  // 0-based index of this message on its link
  const wire::Packet* packet;
};

class DelayModel {
 public:
  virtual ~DelayModel() = default;
  virtual DelayDecision Decide(const MessageInfo& info) = 0;
};

// Worst-case pipe: transit 1, spacing 1.
class UnitDelayModel : public DelayModel {
 public:
  DelayDecision Decide(const MessageInfo&) override {
    return {kUnit, kUnit};
  }
};

// Near-instant delivery (one tick, no spacing): useful for sanity checks
// and for isolating message complexity from timing.
class EagerDelayModel : public DelayModel {
 public:
  DelayDecision Decide(const MessageInfo&) override {
    return {Time::Tick(), Time::Zero()};
  }
};

// Independent uniform delays over the whole of the model: transit ∈
// (0, 1], spacing ∈ [0, 1]. Reproducible from the seed.
class RandomDelayModel : public DelayModel {
 public:
  explicit RandomDelayModel(std::uint64_t seed) : rng_(seed) {}
  DelayDecision Decide(const MessageInfo& info) override;

 private:
  Rng rng_;
};

// Fully scripted delays for adversarial executions.
class FunctionDelayModel : public DelayModel {
 public:
  using Fn = std::function<DelayDecision(const MessageInfo&)>;
  explicit FunctionDelayModel(Fn fn) : fn_(std::move(fn)) {}
  DelayDecision Decide(const MessageInfo& info) override {
    return fn_(info);
  }

 private:
  Fn fn_;
};

// Factory helpers (the common configurations used by the harness).
std::unique_ptr<DelayModel> MakeUnitDelay();
std::unique_ptr<DelayModel> MakeEagerDelay();
std::unique_ptr<DelayModel> MakeRandomDelay(std::uint64_t seed);

}  // namespace celect::sim
