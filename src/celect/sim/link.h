// FIFO directed-link bookkeeping.
//
// Links are bidirectional in the model, but FIFO order is per direction;
// LinkTable tracks, for each directed pair that has actually carried
// traffic, the arrival time of the last message and the count of messages
// sent, and computes arrival times that respect FIFO and the delay
// model's spacing choices.
//
// Storage is probed on every send, so it is hot-path critical. Up to
// kDenseMaxN nodes it is a flat N x N array of 16-byte States, allocated
// lazily on first traffic; past that, a PairMap keyed on from * N + to
// (never 0, since from == to carries no traffic). See pair_table.h.
//
// When a FaultPlan enables link faults, admission draws from a dedicated
// seeded RNG to decide, per message, whether it is lost (never arrives;
// FIFO backlog unaffected), duplicated (a second copy arrives later, in
// FIFO order), or reordered (arrives at send_time + transit even if that
// overtakes the backlog — still within the one-unit delay bound). With
// faults disabled no RNG is drawn and behaviour is bit-identical to the
// fault-free simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "celect/sim/delay_model.h"
#include "celect/sim/fault.h"
#include "celect/sim/pair_table.h"
#include "celect/sim/time.h"
#include "celect/sim/types.h"
#include "celect/util/rng.h"

namespace celect::sim {

// The outcome of admitting one message onto a link.
struct Admission {
  bool lost = false;       // injected loss: nothing will arrive
  bool reordered = false;  // arrival bypassed the FIFO backlog
  Time arrival;            // valid when !lost
  // Arrival of the injected duplicate copy, if one was scheduled.
  std::optional<Time> duplicate_arrival;
};

class LinkTable {
 public:
  // Opaque handle to one directed link's state from Touch(). Valid only
  // until the next mutating call on a *different* pair (sparse growth
  // rehashes) — use it immediately, don't store it.
  class LinkRef {
   private:
    friend class LinkTable;
    void* p = nullptr;
  };

  explicit LinkTable(std::uint32_t n) : n_(n) {}

  // Turns on per-message fault draws with the given rates and RNG seed.
  void EnableFaults(const LinkFaultProfile& profile, std::uint64_t seed);

  // The send path probes the table once: Touch finds (creating if
  // absent) the from→to state, and the handle then serves both the delay
  // model's sent-count query and the admission.
  LinkRef Touch(NodeId from, NodeId to);

  // Messages sent so far on the link (lost ones included — they were
  // sent and paid for). A fresh link reads 0.
  std::uint64_t SentCount(const LinkRef& l) const {
    return static_cast<const State*>(l.p)->sent;
  }

  // Computes the arrival time for a message sent at `send_time` from
  // `from` to `to` with the given delay decision and updates FIFO state.
  // With faults enabled the message may instead be lost, duplicated, or
  // reordered (see above); with them off, no RNG is drawn and the
  // arrival never reorders the link.
  Admission AdmitWithFaults(const LinkRef& l, NodeId from, NodeId to,
                            Time send_time, const DelayDecision& d);

  // The runtime reports each delivery so in-flight counts stay accurate.
  // Lost messages never arrive and must not be reported.
  void NotifyDelivered(NodeId from, NodeId to);

  // The largest per-directed-link message count seen (congestion metric).
  std::uint64_t MaxLinkLoad() const { return max_load_; }

  // The largest number of messages simultaneously in flight on one
  // directed link — the congestion the Ɛ throttle bounds (paper §4: a
  // node may otherwise have Θ(N) forwarded messages serialised on its
  // owner link).
  std::uint64_t MaxLinkInflight() const { return max_inflight_; }

 private:
  struct State {
    Time last_arrival = Time::Zero();
    std::uint32_t sent = 0;
    std::uint32_t inflight = 0;
  };
  static_assert(sizeof(State) == 16);

  std::uint64_t Key(NodeId from, NodeId to) const {
    return static_cast<std::uint64_t>(from) * n_ + to;
  }

  bool dense() const { return n_ <= kDenseMaxN; }

  // Find-or-insert (mutating path; allocates storage lazily).
  State& Obtain(NodeId from, NodeId to);

  // The FIFO-respecting admission core.
  Time AdmitOrdered(State& s, Time send_time, const DelayDecision& d);

  std::uint32_t n_;
  // Dense mode: n_ x n_ States, indexed by Key(); empty until first use.
  std::vector<State> dense_;
  // Sparse mode, keyed by Key().
  PairMap<State> sparse_;
  std::uint64_t max_load_ = 0;
  std::uint64_t max_inflight_ = 0;

  LinkFaultProfile faults_;
  bool faults_enabled_ = false;
  Rng fault_rng_;
};

}  // namespace celect::sim
