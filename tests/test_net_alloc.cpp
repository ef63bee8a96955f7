// Allocation budget of the SimNet transport. Once a run has warmed its
// buffers up, moving datagrams must not touch the heap: rounds of
// sends, retransmits and acks over a lossy, duplicating, reordering and
// corrupting 4-node mesh allocate nothing. The binary replaces global
// operator new with a counting one, which is why it is an executable of
// its own.
//
// Every transport buffer keeps its capacity and grows only when its
// high-water mark doubles, so what a warmed-up run still allocates is
// a buffer meeting a new peak: a reorder buffer behind a longer loss
// streak than any before, a burstier channel. Such peaks get
// exponentially rarer as the run goes on; the warm-up below outlasts
// them for this seeded run, so the measured rounds see none.
//
// A fresh election is the other budget: one built from nothing, as
// every net_chaos election is, must stay within a fixed number of
// allocations and bytes, so opening sessions, carrying datagrams and
// folding metrics stay cheap. It prints what it measured.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "celect/net/cluster.h"
#include "celect/net/sim_net.h"
#include "celect/obs/shard.h"
#include "celect/proto/nosod/fault_tolerant.h"

namespace {

std::uint64_t g_allocations = 0;
std::uint64_t g_bytes = 0;

void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  g_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
// std::stable_sort's temporary buffer comes from the nothrow form, so
// it must be the counted one too, and must pair with free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  g_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace celect::net {
namespace {

constexpr PeerId kNodes = 4;
// RTT samples an endpoint keeps for percentiles, across its sessions.
// The sample vector and each endpoint's flight recorder grow until
// their caps by design, so the warm-up runs until both are full.
constexpr std::size_t kRttCap = 4096;

SimNetConfig ChaosConfig() {
  SimNetConfig c;
  c.n = kNodes;
  c.seed = 7;
  c.link.loss = 0.10;
  c.link.duplicate = 0.05;
  c.link.reorder = 0.20;
  c.link.corrupt = 0.02;
  return c;
}

// Drives a SimNet the way RunSimElection does, minus the protocol: each
// round every node sends one packet to every peer, then the virtual
// clock runs event by event for the round's span, delivering due
// datagrams and polling every node.
struct Mesh {
  SimNet net{ChaosConfig()};
  wire::Packet packet{7, {1, -2, 300}};
  std::vector<TransportEvent> events;
  std::uint64_t delivered = 0;

  void Round() {
    for (PeerId from = 0; from < kNodes; ++from) {
      for (PeerId to = 0; to < kNodes; ++to) {
        if (from != to) net.at(from).Send(to, packet);
      }
    }
    const Micros until = net.virtual_clock().Now() + 60'000;
    for (;;) {
      const std::optional<Micros> next = net.NextEvent();
      if (!next || *next > until) break;
      net.virtual_clock().AdvanceTo(*next);
      net.DeliverDue();
      for (PeerId i = 0; i < kNodes; ++i) {
        events.clear();
        net.at(i).Poll(events);
        for (const TransportEvent& ev : events) {
          if (ev.kind == TransportEvent::Kind::kPacket) ++delivered;
        }
      }
    }
    net.virtual_clock().AdvanceTo(until);
  }

  // Every flight recorder is full and every endpoint's RTT sample
  // vector is at its cap.
  bool AtCaps() {
    for (PeerId i = 0; i < kNodes; ++i) {
      const obs::FlightRecorder* rec = net.at(i).recorder();
      if (rec->seen() < rec->cap()) return false;
      if (net.at(i).Stats().sessions.rtt_samples.size() < kRttCap) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t Total(std::uint64_t SessionStats::*field) {
    std::uint64_t sum = 0;
    for (PeerId i = 0; i < kNodes; ++i) {
      sum += net.at(i).Stats().sessions.*field;
    }
    return sum;
  }
};

TEST(NetAlloc, SteadyStateRoundsAllocateNothing) {
  Mesh mesh;
  int warmup = 0;
  while (!mesh.AtCaps() && warmup < 20'000) {
    for (int i = 0; i < 100; ++i) mesh.Round();
    warmup += 100;
  }
  ASSERT_TRUE(mesh.AtCaps()) << "warm-up never filled the recorders";
  // A further stretch settles every reused buffer at its peak size.
  for (int i = 0; i < 30'000; ++i) mesh.Round();

  const std::uint64_t delivered = mesh.delivered;
  const std::uint64_t retransmits =
      mesh.Total(&SessionStats::data_retransmits);
  const std::uint64_t acks = mesh.Total(&SessionStats::acks_sent);
  const std::uint64_t frame_errors = mesh.Total(&SessionStats::frame_errors);

  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 500; ++i) mesh.Round();
  const std::uint64_t allocations = g_allocations - before;

  EXPECT_EQ(allocations, 0u);
  // The measured rounds did the work they claim to. A packet held up
  // by losses may land after the last round, or land in it from an
  // earlier one.
  EXPECT_GT(mesh.delivered - delivered, 450u * kNodes * (kNodes - 1));
  EXPECT_GT(mesh.Total(&SessionStats::data_retransmits), retransmits);
  EXPECT_GT(mesh.Total(&SessionStats::acks_sent), acks);
  EXPECT_GT(mesh.Total(&SessionStats::frame_errors), frame_errors);
}

// The net_chaos benchmark's election: FT(f=1) among 16 PeerNodes over
// lossy, duplicating, reordering links, with node 1 killed at 100 ms.
ClusterConfig NetChaosConfig(std::uint64_t seed) {
  ClusterConfig c;
  c.n = 16;
  c.seed = seed;
  c.link.loss = 0.10;
  c.link.duplicate = 0.02;
  c.link.reorder = 0.05;
  c.link.delay_min = 500;
  c.link.delay_max = 3'000;
  c.link.reorder_extra = 8'000;
  c.unit_us = 20'000;
  c.chaos = {{100'000, 1, ChaosEvent::What::kKill}};
  return c;
}

TEST(NetAlloc, FreshElectionStaysWithinBudget) {
  // Every election builds its endpoints and 240 sessions from nothing,
  // so what it allocates is mostly that warm-up: opening a session
  // must cost a few small allocations, not a buffer grown byte by
  // byte and a stats block per session.
  constexpr std::uint64_t kSeeds = 8;
  const sim::ProcessFactory factory = proto::nosod::MakeFaultTolerant(1);
  RunSimElection(NetChaosConfig(0), factory);  // one-time statics
  const std::uint64_t allocations_before = g_allocations;
  const std::uint64_t bytes_before = g_bytes;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const ClusterResult r = RunSimElection(NetChaosConfig(seed), factory);
    EXPECT_TRUE(r.agreed) << "seed " << seed;
  }
  const std::uint64_t allocations =
      (g_allocations - allocations_before) / kSeeds;
  const std::uint64_t bytes = (g_bytes - bytes_before) / kSeeds;
  RecordProperty("allocations_per_election", std::to_string(allocations));
  RecordProperty("bytes_per_election", std::to_string(bytes));
  std::printf("fresh net_chaos election: %llu allocations, %llu bytes\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(bytes));
  // The budget sits just above what one mesh-wide in-flight heap, a
  // slab datagram pool and metrics folded in place cost (about 1,770
  // allocations and 0.50 MB). A heap per channel, a separately
  // allocated vector per pool slot and a registry built per
  // incarnation cost about 3,020 and 0.61 MB, and fail it.
  EXPECT_LE(allocations, 2'200u) << "allocations per election";
  EXPECT_LE(bytes, 590'000u) << "bytes allocated per election";
}

}  // namespace
}  // namespace celect::net
