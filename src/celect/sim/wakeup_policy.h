// Wakeup plans: which nodes are base nodes and when they wake.
//
// The paper's complexity claims are sensitive to the wakeup pattern —
// protocol A is Θ(N)-time under a staggered chain but O(k + N/k) when
// wakeups are close together, and protocol G's whole purpose is to
// neutralise adversarial staggering. Plans are explicit data so tests
// and benches can name the pattern they exercise.
#pragma once

#include <utility>
#include <vector>

#include "celect/sim/time.h"
#include "celect/sim/types.h"
#include "celect/util/rng.h"

namespace celect::sim {

struct WakeupPlan {
  // (node, wakeup time) — base nodes only; everyone else is passive.
  std::vector<std::pair<NodeId, Time>> wakeups;

  std::size_t base_count() const { return wakeups.size(); }
  Time LastWakeup() const;
};

// Every node is a base node, all waking at time zero.
WakeupPlan WakeAllAtZero(std::uint32_t n);

// A single base node (trivial election).
WakeupPlan WakeSingle(std::uint32_t n, NodeId node);

// `count` random base nodes, waking at random times in [0, window].
WakeupPlan WakeRandomSubset(std::uint32_t n, std::uint32_t count,
                            Time window, Rng& rng);

// The §3 pathology for protocol A (ring positions with ascending
// identities): node at ring position p wakes at p·spacing, so each node
// wakes just before its predecessor's capture arrives and every capture
// by a smaller identity is ignored. spacing slightly below the unit
// delay reproduces the Θ(N) chain.
WakeupPlan WakeStaggeredChain(std::uint32_t n, Time spacing);

// Every stride-th node (ring positions 0, stride, 2·stride, ...) wakes at
// zero. Against protocol A with segment length k = stride this is the
// worst case for the second phase: all N/k candidates survive phase one
// and the strided elect round costs Θ(N²/k²) messages.
WakeupPlan WakeEveryKth(std::uint32_t n, std::uint32_t stride);

}  // namespace celect::sim
