// Election drivers over a transport mesh.
//
// RunSimElection drives n PeerNodes over a SimNet to completion on the
// virtual clock — fully deterministic, with scripted kill/restart chaos
// — and is what the reliability test suite and the sim rows of
// bench_transport run. Its loop is scheduled on due work: each round
// jumps to the earliest of SimNet's in-flight heap top, the nodes'
// cached NextWake and the next chaos event, delivers the due datagrams
// in (from, to) order, then pumps in node order only the nodes that
// received one, just restarted, or whose wake is due. Any other pump
// would be a no-op, so results match pumping every node every round.
// Agreement is re-checked only when some node's belief changed or a
// node was killed or restarted.
//
// RunUdpElection drives n UdpTransports inside one process on the real
// clock (the socket rows of the bench, and a smoke-testable miniature
// of the multi-process demo).
//
// "Agreed" means: every currently-live node holds the same leader
// belief, at least one node actually declared itself, and the believed
// leader is that declarer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "celect/net/peer_node.h"
#include "celect/net/sim_net.h"
#include "celect/net/udp_transport.h"
#include "celect/obs/shard.h"
#include "celect/sim/process.h"

namespace celect::net {

struct ChaosEvent {
  Micros at = 0;
  PeerId node = 0;
  enum class What { kKill, kRestart } what = What::kKill;
};

struct ClusterConfig {
  std::uint32_t n = 4;
  std::uint64_t seed = 1;
  FakeLinkParams link;        // sim path only
  SessionParams session;
  Micros unit_us = 20'000;
  Micros announce_interval_us = 100'000;
  Micros deadline_us = 120'000'000;  // virtual (sim) or real (udp)
  std::vector<ChaosEvent> chaos;     // sim path only; sorted by `at`
  // udp path only:
  std::uint16_t base_port = 47000;
  double send_loss = 0.0;
  // Collect causal trace records per node and emit one TraceShard per
  // incarnation in ClusterResult::shards (killed incarnations flush a
  // complete=false shard at the moment of death).
  bool trace = false;
  std::size_t trace_cap = 200'000;
};

struct ClusterResult {
  bool agreed = false;
  sim::Id leader = 0;
  Micros elapsed_us = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t peer_restarts = 0;
  std::uint64_t delivered = 0;
  // Per-node event digests folded in node order — two runs of the same
  // sim config agree on this iff they dispatched identical event
  // streams. Meaningless (wall-clock-dependent) on the udp path.
  std::uint64_t fingerprint = 0;
  // RTT percentiles over never-retransmitted frames (0 when no samples).
  Micros rtt_p50_us = 0;
  Micros rtt_p99_us = 0;
  // Every incarnation's PeerNode::FoldMetrics, added in place:
  // cluster-wide counters and session-layer histograms (rtt_us,
  // backoff_us, ...).
  obs::MetricsRegistry metrics;
  // One shard per node incarnation when ClusterConfig::trace is set,
  // in capture order (deaths first, then survivors in node order).
  std::vector<obs::TraceShard> shards;
};

ClusterResult RunSimElection(const ClusterConfig& config,
                             const sim::ProcessFactory& factory);

// Returns nullopt if binding base_port..base_port+n-1 failed.
std::optional<ClusterResult> RunUdpElection(
    const ClusterConfig& config, const sim::ProcessFactory& factory);

}  // namespace celect::net
