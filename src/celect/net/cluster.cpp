#include "celect/net/cluster.h"

#include <algorithm>
#include <memory>
#include <set>

#include <unistd.h>

#include "celect/util/check.h"
#include "celect/util/rng.h"

namespace celect::net {

namespace {

// Distinct, seed-shuffled identities: protocols contest on ids, so the
// winner should not trivially be node n-1 every run.
std::vector<sim::Id> MakeIds(std::uint32_t n, std::uint64_t seed) {
  Rng rng(SplitMix64(seed ^ 0x1d5).Next());
  auto perm = rng.Permutation(n);
  std::vector<sim::Id> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ids[i] = static_cast<sim::Id>(perm[i]) * 7 + 1001;
  }
  return ids;
}

struct Agreement {
  bool agreed = false;
  sim::Id leader = 0;
};

// Live nodes unanimous, and the believed id was actually declared.
template <typename NodeVec>
Agreement CheckAgreement(const NodeVec& nodes,
                         const std::vector<std::uint8_t>& alive,
                         const std::set<sim::Id>& declared) {
  Agreement a;
  std::optional<sim::Id> belief;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!alive[i] || nodes[i] == nullptr) continue;
    auto l = nodes[i]->leader();
    if (!l) return a;
    if (belief && *belief != *l) return a;
    belief = l;
  }
  if (!belief || declared.count(*belief) == 0) return a;
  a.agreed = true;
  a.leader = *belief;
  return a;
}

// Folds one incarnation's transport stats, metrics (in place) and
// (when tracing) shard; st is the incarnation's Stats(), taken once.
void Fold(ClusterResult& r, const PeerNode& node, const TransportStats& st,
          bool trace, bool complete) {
  r.datagrams += st.datagrams_sent;
  r.retransmits += st.sessions.data_retransmits;
  r.suspicions += st.sessions.suspicions;
  r.peer_restarts += st.sessions.peer_restarts;
  r.delivered += st.sessions.delivered;
  node.FoldMetrics(r.metrics, st);
  if (trace) r.shards.push_back(node.MakeShard(complete, st));
}

void FillRtt(ClusterResult& r, std::vector<Micros>& samples) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  r.rtt_p50_us = samples[samples.size() / 2];
  r.rtt_p99_us = samples[samples.size() * 99 / 100];
}

}  // namespace

ClusterResult RunSimElection(const ClusterConfig& config,
                             const sim::ProcessFactory& factory) {
  SimNetConfig nc;
  nc.n = config.n;
  nc.link = config.link;
  nc.session = config.session;
  nc.seed = config.seed;
  SimNet net(nc);

  auto ids = MakeIds(config.n, config.seed);
  std::vector<std::unique_ptr<PeerNode>> nodes(config.n);
  auto make_node = [&](PeerId i, bool rejoin) {
    PeerNodeConfig pc;
    pc.id = ids[i];
    pc.unit_us = config.unit_us;
    pc.announce_interval_us = config.announce_interval_us;
    pc.rejoin = rejoin;
    pc.trace = config.trace;
    pc.trace_cap = config.trace_cap;
    return std::make_unique<PeerNode>(pc, net.at(i), factory);
  };
  std::vector<std::uint8_t> alive(config.n, 1);
  for (PeerId i = 0; i < config.n; ++i) nodes[i] = make_node(i, false);

  auto chaos = config.chaos;
  std::stable_sort(chaos.begin(), chaos.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
  std::size_t chaos_idx = 0;

  ClusterResult result;
  wire::Fnv1aStream fp;
  std::set<sim::Id> declared;
  auto note_declared = [&] {
    for (PeerId i = 0; i < config.n; ++i) {
      if (alive[i] && nodes[i]->declared_self()) {
        declared.insert(nodes[i]->id());
      }
    }
  };
  std::vector<Micros> rtt;  // the survivors' RTT samples
  auto fold_node = [&](PeerId i, bool survived) {
    // Fold a dying incarnation's digest, stats, and shard before they
    // vanish. A killed node's shard is flagged incomplete — the sim
    // analogue of the partial flush a SIGKILLed process leaves behind.
    std::uint64_t d = nodes[i]->EventDigest();
    for (int b = 0; b < 8; ++b) {
      fp.Update(static_cast<std::uint8_t>(d >> (8 * b)));
    }
    const TransportStats st = net.at(i).Stats();
    Fold(result, *nodes[i], st, config.trace, survived);
    if (survived) {
      rtt.insert(rtt.end(), st.sessions.rtt_samples.begin(),
                 st.sessions.rtt_samples.end());
    }
  };

  // Each live node's NextWake as of its last pump. Only the node's own
  // Pump moves it (timers, announces and session retransmits are all
  // armed from inside Pump), so the cache stays exact between pumps.
  std::vector<std::optional<Micros>> wake(config.n);
  // Nodes that must pump this round whatever their wake: a datagram
  // landed in their inbox, or they were just restarted.
  std::vector<std::uint8_t> due(config.n, 0);
  // Set when some node's leader() or declared_self() moved, or a node
  // was killed or restarted: the only events agreement depends on.
  bool beliefs_changed = true;
  auto pump = [&](PeerId i) {
    const std::optional<sim::Id> leader = nodes[i]->leader();
    const bool declared_self = nodes[i]->declared_self();
    nodes[i]->Pump();
    wake[i] = nodes[i]->NextWake();
    if (nodes[i]->leader() != leader ||
        nodes[i]->declared_self() != declared_self) {
      beliefs_changed = true;
    }
  };

  for (PeerId i = 0; i < config.n; ++i) pump(i);

  // The scheduled loop. Each round advances the clock to the earliest
  // of: the SimNet in-flight heap top, the cached node wakes, and the
  // next chaos event. It applies the chaos due by then, delivers the
  // due datagrams in (from, to) channel order, then pumps in node order
  // only the nodes that received a datagram, just restarted, or have a
  // cached wake <= now. Skipping the other nodes changes no state: a
  // Pump with an empty inbox and no due hello, retransmit, protocol
  // timer or announce is a no-op (Tick sends nothing, ack_dirty_ is
  // only ever set by OnDatagram within the same Poll, and neither
  // FireDueTimers nor Announce fires). A datagram sent during a round
  // is delivered no earlier than the next round, even at zero delay.
  // So the rounds dispatch exactly what pumping every live node would.
  for (;;) {
    if (beliefs_changed) {
      beliefs_changed = false;
      note_declared();
      Agreement a = CheckAgreement(nodes, alive, declared);
      if (a.agreed) {
        result.agreed = true;
        result.leader = a.leader;
        break;
      }
    }
    std::optional<Micros> next = net.NextArrival();
    for (PeerId i = 0; i < config.n; ++i) {
      if (alive[i] && wake[i] && (!next || *wake[i] < *next)) next = wake[i];
    }
    if (chaos_idx < chaos.size() &&
        (!next || chaos[chaos_idx].at < *next)) {
      next = chaos[chaos_idx].at;
    }
    if (!next || *next > config.deadline_us) break;
    net.virtual_clock().AdvanceTo(*next);
    const Micros now = net.virtual_clock().Now();
    while (chaos_idx < chaos.size() && chaos[chaos_idx].at <= now) {
      const ChaosEvent& ev = chaos[chaos_idx++];
      if (ev.what == ChaosEvent::What::kKill) {
        if (!alive[ev.node]) continue;
        fold_node(ev.node, /*survived=*/false);
        net.Kill(ev.node);
        nodes[ev.node].reset();
        alive[ev.node] = 0;
      } else {
        if (alive[ev.node]) continue;
        net.Restart(ev.node);
        nodes[ev.node] = make_node(ev.node, /*rejoin=*/true);
        alive[ev.node] = 1;
        due[ev.node] = 1;
      }
      beliefs_changed = true;
    }
    for (PeerId i : net.DeliverDue()) due[i] = 1;
    for (PeerId i = 0; i < config.n; ++i) {
      if (!alive[i] || !(due[i] || (wake[i] && *wake[i] <= now))) continue;
      due[i] = 0;
      pump(i);
    }
  }

  result.elapsed_us = net.virtual_clock().Now();
  for (PeerId i = 0; i < config.n; ++i) {
    if (alive[i]) fold_node(i, /*survived=*/true);
  }
  FillRtt(result, rtt);
  result.fingerprint = fp.Digest64();
  return result;
}

std::optional<ClusterResult> RunUdpElection(
    const ClusterConfig& config, const sim::ProcessFactory& factory) {
  auto ids = MakeIds(config.n, config.seed);
  std::vector<std::unique_ptr<UdpTransport>> transports(config.n);
  for (PeerId i = 0; i < config.n; ++i) {
    UdpTransportConfig tc;
    tc.self = i;
    tc.n = config.n;
    tc.base_port = config.base_port;
    tc.session = config.session;
    tc.send_loss = config.send_loss;
    tc.seed = SplitMix64(config.seed ^ (i + 1)).Next();
    tc.epoch = config.seed * config.n + i + 1;
    transports[i] = std::make_unique<UdpTransport>(tc);
    if (!transports[i]->Open()) return std::nullopt;
  }
  std::vector<std::unique_ptr<PeerNode>> nodes(config.n);
  std::vector<std::uint8_t> alive(config.n, 1);
  for (PeerId i = 0; i < config.n; ++i) {
    PeerNodeConfig pc;
    pc.id = ids[i];
    pc.unit_us = config.unit_us;
    pc.announce_interval_us = config.announce_interval_us;
    pc.trace = config.trace;
    pc.trace_cap = config.trace_cap;
    nodes[i] = std::make_unique<PeerNode>(pc, *transports[i], factory);
  }

  ClusterResult result;
  std::set<sim::Id> declared;
  Micros t0 = transports[0]->Now();
  for (;;) {
    for (PeerId i = 0; i < config.n; ++i) nodes[i]->Pump();
    for (PeerId i = 0; i < config.n; ++i) {
      if (nodes[i]->declared_self()) declared.insert(nodes[i]->id());
    }
    Agreement a = CheckAgreement(nodes, alive, declared);
    if (a.agreed) {
      result.agreed = true;
      result.leader = a.leader;
      break;
    }
    Micros now = transports[0]->Now();
    if (now - t0 > config.deadline_us) break;
    ::usleep(200);
  }

  result.elapsed_us = transports[0]->Now() - t0;
  std::vector<Micros> rtt;
  for (PeerId i = 0; i < config.n; ++i) {
    const TransportStats st = transports[i]->Stats();
    Fold(result, *nodes[i], st, config.trace, /*complete=*/true);
    rtt.insert(rtt.end(), st.sessions.rtt_samples.begin(),
               st.sessions.rtt_samples.end());
  }
  FillRtt(result, rtt);
  return result;
}

}  // namespace celect::net
