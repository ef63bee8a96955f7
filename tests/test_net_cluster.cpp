// End-to-end elections over the net/ transports: n PeerNodes hosting
// the fault-tolerant engine over SimNet with chaos links and scripted
// kill/restart, asserting termination with one agreed leader and
// bit-identical fingerprints across reruns. A UDP loopback smoke test
// covers the socket path (skipped if binding fails in the sandbox).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "celect/net/cluster.h"
#include "celect/net/sim_net.h"
#include "celect/obs/shard.h"
#include "celect/proto/nosod/fault_tolerant.h"
#include "celect/wire/checksum.h"

namespace celect::net {
namespace {

using proto::nosod::MakeFaultTolerant;

TEST(NetCluster, CleanElectionAgreesAndIsDeterministic) {
  ClusterConfig config;
  config.n = 8;
  config.seed = 21;
  ClusterResult first = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(first.agreed);
  EXPECT_NE(first.leader, 0);
  EXPECT_GT(first.delivered, 0u);

  ClusterResult second = RunSimElection(config, MakeFaultTolerant(1));
  EXPECT_EQ(second.agreed, first.agreed);
  EXPECT_EQ(second.leader, first.leader);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_EQ(second.elapsed_us, first.elapsed_us);
  EXPECT_EQ(second.datagrams, first.datagrams);
}

TEST(NetCluster, SeedSteersTheElection) {
  ClusterConfig a;
  a.n = 8;
  a.seed = 1;
  ClusterConfig b = a;
  b.seed = 2;
  ClusterResult ra = RunSimElection(a, MakeFaultTolerant(1));
  ClusterResult rb = RunSimElection(b, MakeFaultTolerant(1));
  ASSERT_TRUE(ra.agreed);
  ASSERT_TRUE(rb.agreed);
  EXPECT_NE(ra.fingerprint, rb.fingerprint);
}

TEST(NetCluster, ElectionSurvivesLossyReorderingLinks) {
  ClusterConfig config;
  config.n = 12;
  config.seed = 7;
  config.link.loss = 0.10;
  config.link.duplicate = 0.05;
  config.link.reorder = 0.15;
  config.link.corrupt = 0.01;
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(result.agreed) << "election wedged under chaos links";
  EXPECT_NE(result.leader, 0);
  EXPECT_GT(result.retransmits, 0u)
      << "10% loss must have forced retransmissions";
}

TEST(NetCluster, KillAndRestartMidElectionStillAgrees) {
  ClusterConfig config;
  config.n = 8;
  config.seed = 5;
  config.link.loss = 0.05;
  config.chaos = {
      {40'000, 2, ChaosEvent::What::kKill},
      {90'000, 5, ChaosEvent::What::kKill},
      {400'000, 2, ChaosEvent::What::kRestart},
      {700'000, 5, ChaosEvent::What::kRestart},
  };
  ClusterResult first = RunSimElection(config, MakeFaultTolerant(2));
  ASSERT_TRUE(first.agreed)
      << "two kills within the f=2 budget must not block termination";
  EXPECT_NE(first.leader, 0);

  // Chaos is part of the deterministic schedule: reruns are identical.
  ClusterResult second = RunSimElection(config, MakeFaultTolerant(2));
  EXPECT_EQ(second.leader, first.leader);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_EQ(second.elapsed_us, first.elapsed_us);
}

TEST(NetCluster, DeadPeerRaisesSuspicionsAndElectionCompletes) {
  // A node dies early and never comes back. Retransmit exhaustion must
  // surface as suspicion events (which the FT engine converts into an
  // immediate capture retry), and the live nodes must still agree.
  ClusterConfig config;
  config.n = 8;
  config.seed = 3;
  config.session.rto_initial = 1'000;
  config.session.max_retries = 1;
  config.chaos = {{4'000, 1, ChaosEvent::What::kKill}};
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(result.agreed);
  EXPECT_GT(result.suspicions, 0u)
      << "talking to a dead peer must exhaust retransmits into suspicion";
}

TEST(NetCluster, RestartedPeerIsDetectedViaEpochChange) {
  ClusterConfig config;
  config.n = 6;
  config.seed = 11;
  // Early kill + quick revival: the election is still in flight, so the
  // peers' live sessions meet the new incarnation's epoch directly.
  config.chaos = {
      {5'000, 0, ChaosEvent::What::kKill},
      {20'000, 0, ChaosEvent::What::kRestart},
  };
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(result.agreed);
  EXPECT_GT(result.peer_restarts, 0u)
      << "the revived node's fresh epoch must be noticed by its peers";
}

// The four link/chaos setups of the pinned grid below.
enum class Setup { kClean, kChaosLinks, kKill, kKillRestartKill };

ClusterConfig PinnedConfig(Setup setup, std::uint32_t n) {
  ClusterConfig config;
  config.n = n;
  config.seed = 100 + n + static_cast<std::uint64_t>(setup);
  config.trace = n == 8;  // one traced config per setup
  switch (setup) {
    case Setup::kClean:
      break;
    case Setup::kChaosLinks:
      config.link.loss = 0.10;
      config.link.duplicate = 0.05;
      config.link.reorder = 0.15;
      config.link.corrupt = 0.01;
      break;
    case Setup::kKill:
      config.link.loss = 0.05;
      config.chaos = {{5'000, 1, ChaosEvent::What::kKill}};
      break;
    case Setup::kKillRestartKill:
      // Zero minimum delay: datagrams can arrive at the instant they
      // were sent, so same-instant rounds are exercised too.
      config.link.delay_min = 0;
      config.link.delay_max = 2'000;
      config.chaos = {
          {3'000, 2, ChaosEvent::What::kKill},
          {8'000, 2, ChaosEvent::What::kRestart},
          {12'000, 3, ChaosEvent::What::kKill},
      };
      break;
  }
  return config;
}

struct PinnedRun {
  Setup setup;
  std::uint32_t n;
  bool agreed;
  sim::Id leader;
  std::uint64_t fingerprint;
  Micros elapsed_us;
  std::uint64_t datagrams;
  std::uint64_t delivered;
  std::size_t shards;
};

TEST(NetCluster, ScheduledLoopMatchesPinnedRuns) {
  // Pinned outcomes. Pumping only the nodes with due work must
  // dispatch exactly the event streams that pumping every live node
  // each round would, across kill, restart and zero-delay arrivals
  // too; the perfbench workload never restarts a node.
  const PinnedRun pinned[] = {
      {Setup::kClean, 4, true, 1022, 11079219768012404537u, 21964, 153, 59,
       0},
      {Setup::kClean, 8, true, 1050, 1991917774502069461u, 22880, 465, 151,
       8},
      {Setup::kClean, 16, true, 1099, 5330831145156984196u, 28109, 1377,
       409, 0},
      {Setup::kChaosLinks, 4, true, 1015, 612441157244494326u, 89083, 159,
       55, 0},
      {Setup::kChaosLinks, 8, true, 1050, 12580391902187548161u, 152533, 479,
       142, 8},
      {Setup::kChaosLinks, 16, true, 1043, 1078284108245453990u, 198580,
       1345, 343, 0},
      {Setup::kKill, 4, true, 1015, 14999450331345476519u, 61286, 114, 35,
       0},
      {Setup::kKill, 8, true, 1050, 13448418582042019858u, 76944, 452, 141,
       8},
      {Setup::kKill, 16, true, 1106, 249627210387741005u, 130852, 1273, 339,
       0},
      {Setup::kKillRestartKill, 4, true, 1022, 15816219707191124791u, 15331,
       146, 47, 0},
      {Setup::kKillRestartKill, 8, true, 1050, 1441661870572420193u, 15490,
       415, 133, 9},
      {Setup::kKillRestartKill, 16, true, 1106, 6217331589837852625u, 20042,
       1327, 376, 0},
  };
  for (const PinnedRun& pin : pinned) {
    SCOPED_TRACE(testing::Message()
                 << "setup " << static_cast<int>(pin.setup) << ", n "
                 << pin.n);
    const ClusterResult r =
        RunSimElection(PinnedConfig(pin.setup, pin.n), MakeFaultTolerant(1));
    EXPECT_EQ(r.agreed, pin.agreed);
    EXPECT_EQ(r.leader, pin.leader);
    EXPECT_EQ(r.fingerprint, pin.fingerprint);
    EXPECT_EQ(r.elapsed_us, pin.elapsed_us);
    EXPECT_EQ(r.datagrams, pin.datagrams);
    EXPECT_EQ(r.delivered, pin.delivered);
    EXPECT_EQ(r.shards.size(), pin.shards);
    if (pin.setup == Setup::kKillRestartKill) {
      EXPECT_GT(r.peer_restarts, 0u) << "the restart must reach the peers";
    }
  }
}

// ClusterResult::metrics of four n = 16 elections in the compact wire
// form "c:counter=v,... h:histogram=count;sum;min;max;buckets,...":
// every counter, and every session histogram with its count, sum, min,
// max and buckets through the last non-empty one. A session histogram
// a run never fed (suspicion_us without suspicions) is absent.
constexpr char kChaosLinksMetrics[] =
    "c:net.datagrams_received=1045,net.datagrams_sent=1345,"
    "net.delivered=343,net.peer_restarts=0,net.retransmits=40,"
    "net.rtt_samples_dropped=0,net.suspicions=0,net.version_mismatch=0,"
    "node.events_dispatched=343,node.suspicions_seen=0,"
    "node.trace_dropped=0,proto.f.broadcasters=1,proto.f.fwd_queue_peak=3 "
    "h:backoff_us=40;3673785;60066;197972;"
    "0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:5:30:5,"
    "rtt_us=269;1334303;1138;18339;0:0:0:0:0:0:0:0:0:0:0:23:147:47:51:1,"
    "window_occupancy=481;530;1;3;0:436:45";

constexpr char kKillRestartKillMetrics[] =
    "c:net.datagrams_received=1078,net.datagrams_sent=1327,"
    "net.delivered=376,net.peer_restarts=2,net.retransmits=4,"
    "net.rtt_samples_dropped=0,net.suspicions=0,net.version_mismatch=0,"
    "node.events_dispatched=378,node.suspicions_seen=0,"
    "node.trace_dropped=0,proto.f.broadcasters=2,proto.f.fwd_queue_peak=9 "
    "h:backoff_us=4;321694;63686;94994;"
    "0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:1:3,"
    "rtt_us=333;581606;55;3824;0:0:0:0:0:0:1:1:4:12:48:149:118,"
    "window_occupancy=509;564;1;3;0:457:52";

constexpr char kDeadPeerMetrics[] =
    "c:net.datagrams_received=2712,net.datagrams_sent=3281,"
    "net.delivered=447,net.peer_restarts=0,net.retransmits=840,"
    "net.rtt_samples_dropped=0,net.suspicions=276,net.version_mismatch=0,"
    "node.events_dispatched=723,node.suspicions_seen=276,"
    "node.trace_dropped=0,proto.f.broadcasters=1,proto.f.fwd_queue_peak=14,"
    "proto.f.suspicions_acted=26 "
    "h:backoff_us=840;2324657;1500;4998;0:0:0:0:0:0:0:0:0:0:0:284:407:149,"
    "suspicion_us=261;211043;10;3227;0:0:0:0:3:5:3:13:33:49:74:67:14,"
    "window_occupancy=595;657;1;6;0:545:47:3";

constexpr char kCappedRttMetrics[] =
    "c:net.datagrams_received=1045,net.datagrams_sent=1345,"
    "net.delivered=343,net.peer_restarts=0,net.retransmits=40,"
    "net.rtt_samples_dropped=12,net.suspicions=0,net.version_mismatch=0,"
    "node.events_dispatched=343,node.suspicions_seen=0,"
    "node.trace_dropped=0,proto.f.broadcasters=1,proto.f.fwd_queue_peak=3 "
    "h:backoff_us=40;3673785;60066;197972;"
    "0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:5:30:5,"
    "rtt_us=269;1334303;1138;18339;0:0:0:0:0:0:0:0:0:0:0:23:147:47:51:1,"
    "window_occupancy=481;530;1;3;0:436:45";

void ExpectPinnedStats(const ClusterConfig& config, Micros rtt_p50_us,
                       Micros rtt_p99_us, const std::string& metrics) {
  const ClusterResult r = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(r.agreed);
  EXPECT_EQ(r.rtt_p50_us, rtt_p50_us);
  EXPECT_EQ(r.rtt_p99_us, rtt_p99_us);
  EXPECT_EQ(r.metrics.SerializeCompact(), metrics);
}

TEST(NetCluster, SessionStatsMatchPinnedRuns) {
  // Pinned from the build in which every session owned its stats and
  // an endpoint merged them in peer order: counters, the session
  // histograms and the RTT percentiles must not depend on where the
  // sessions record them.
  {
    SCOPED_TRACE("chaos links");
    ExpectPinnedStats(PinnedConfig(Setup::kChaosLinks, 16), 3650, 13578,
                      kChaosLinksMetrics);
  }
  {
    SCOPED_TRACE("kill, restart, kill");
    ExpectPinnedStats(PinnedConfig(Setup::kKillRestartKill, 16), 1717, 3531,
                      kKillRestartKillMetrics);
  }
  {
    // Every frame to the dead peer exhausts its budget: suspicion
    // episodes, and no clean RTT sample at all.
    SCOPED_TRACE("dead peer");
    ClusterConfig config;
    config.n = 16;
    config.seed = 3;
    config.session.rto_initial = 1'000;
    config.session.max_retries = 1;
    config.chaos = {{4'000, 1, ChaosEvent::What::kKill}};
    ExpectPinnedStats(config, 0, 0, kDeadPeerMetrics);
  }
  {
    // Each session keeps 4 samples; the percentiles are over those.
    SCOPED_TRACE("chaos links, 4 RTT samples per session");
    ClusterConfig config = PinnedConfig(Setup::kChaosLinks, 16);
    config.session.rtt_sample_cap = 4;
    ExpectPinnedStats(config, 3692, 13578, kCappedRttMetrics);
  }
}

// Digest of a 5-node SimNet run whose clock moves in fixed 2.5 ms
// strides rather than to the next arrival, so one DeliverDue drains
// datagrams due at several instants, from several channels, some
// toward a node that is dead or was restarted. Folds DeliverDue's
// receivers, every Poll event, the final Stats() and each endpoint's
// flight recorder.
std::uint64_t StridedMeshDigest(std::uint64_t seed) {
  SimNetConfig config;
  config.n = 5;
  config.seed = seed;
  config.link.loss = 0.10;
  config.link.duplicate = 0.10;
  config.link.reorder = 0.20;
  config.link.corrupt = 0.05;
  config.session.rto_initial = 20'000;
  SimNet net(config);
  constexpr PeerId kVictim = 2;
  constexpr Micros kStride = 2'500;

  wire::Fnv1aStream h;
  auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h.Update(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  std::vector<bool> alive(config.n, true);
  std::vector<TransportEvent> events;
  for (int round = 0; round < 400; ++round) {
    if (round == 120) {
      net.Kill(kVictim);
      alive[kVictim] = false;
    }
    if (round == 200) {
      net.Restart(kVictim);
      alive[kVictim] = true;
    }
    if (round % 5 == 0 && round < 300) {
      for (PeerId from = 0; from < config.n; ++from) {
        for (PeerId to = 0; to < config.n; ++to) {
          if (from == to || !alive[from]) continue;
          net.at(from).Send(to, wire::Packet{7, {round, from, to}});
        }
      }
    }
    net.virtual_clock().AdvanceTo(net.virtual_clock().Now() + kStride);
    fold(0xD0);
    for (PeerId to : net.DeliverDue()) fold(to);
    for (PeerId i = 0; i < config.n; ++i) {
      if (!alive[i]) continue;
      events.clear();
      net.at(i).Poll(events);
      for (const TransportEvent& ev : events) {
        fold(i);
        fold(static_cast<std::uint64_t>(ev.kind));
        fold(ev.peer);
        fold(ev.packet.type);
        for (std::int64_t f : ev.packet.fields) {
          fold(static_cast<std::uint64_t>(f));
        }
      }
    }
  }
  for (PeerId i = 0; i < config.n; ++i) {
    const TransportStats st = net.at(i).Stats();
    for (std::uint64_t v :
         {st.datagrams_sent, st.datagrams_received, st.bytes_sent,
          st.bytes_received, st.sessions.data_sent,
          st.sessions.data_retransmits, st.sessions.acks_sent,
          st.sessions.delivered, st.sessions.duplicates,
          st.sessions.out_of_order, st.sessions.stale_epoch,
          st.sessions.frame_errors, st.sessions.decode_errors,
          st.sessions.peer_restarts, st.sessions.suspicions,
          st.sessions.rtt_us.count(), st.sessions.rtt_us.sum()}) {
      fold(v);
    }
    // Both in arrival order across the node's sessions, so they see
    // the order of its inbox, not just of each channel.
    for (Micros rtt : st.sessions.rtt_samples) fold(rtt);
    for (const obs::FlightEvent& e : net.at(i).recorder()->Snapshot()) {
      for (std::uint64_t v : {e.at, std::uint64_t{e.peer},
                              static_cast<std::uint64_t>(e.kind), e.a, e.b}) {
        fold(v);
      }
    }
  }
  return h.Digest64();
}

TEST(NetSimNet, StridedClockKeepsChannelDeliveryOrder) {
  // Pinned from the build that kept one in-flight heap per channel and
  // drained due channels in (from, to) order: a single mesh-wide heap
  // must deliver the same datagrams to the same inboxes in the same
  // order, however many arrival instants one DeliverDue covers.
  EXPECT_EQ(StridedMeshDigest(1), 2382802623240261652u);
  EXPECT_EQ(StridedMeshDigest(2), 15233044924400491979u);
  EXPECT_NE(StridedMeshDigest(1), StridedMeshDigest(2));
}

TEST(NetCluster, UdpLoopbackElectionSmoke) {
  // Real sockets over 127.0.0.1, one transport per node inside this
  // process. Skipped (not failed) where the sandbox forbids binding.
  ClusterConfig config;
  config.n = 4;
  config.seed = 9;
  config.base_port = 48211;
  config.deadline_us = 30'000'000;
  auto result = RunUdpElection(config, MakeFaultTolerant(1));
  if (!result.has_value()) {
    GTEST_SKIP() << "cannot bind localhost UDP ports in this environment";
  }
  EXPECT_TRUE(result->agreed);
  EXPECT_NE(result->leader, 0);
}

}  // namespace
}  // namespace celect::net
