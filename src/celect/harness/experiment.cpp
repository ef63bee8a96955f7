#include "celect/harness/experiment.h"

#include <algorithm>
#include <sstream>

#include "celect/adversary/adaptive_adversary.h"
#include "celect/sim/network.h"
#include "celect/util/check.h"
#include "celect/util/logging.h"
#include "celect/util/rng.h"

namespace celect::harness {

using sim::NetworkConfig;

std::uint32_t RequestedWakeupCount(const RunOptions& options) {
  std::uint32_t requested =
      options.wakeup_count == 0 ? options.n / 2 : options.wakeup_count;
  return std::max<std::uint32_t>(requested, 1);
}

std::uint32_t EffectiveWakeupCount(const RunOptions& options) {
  // failures < n is CHECKed by BuildNetwork, so at least one node lives.
  std::uint32_t live =
      options.n - std::min(options.failures, options.n - 1);
  return std::min(RequestedWakeupCount(options), live);
}

sim::NetworkConfig BuildNetwork(const RunOptions& options) {
  CELECT_CHECK(options.n >= 2);
  Rng rng(options.seed);

  NetworkConfig config;
  config.n = options.n;

  switch (options.identity) {
    case IdentityKind::kAscending:
      config.identities = sim::IdentitiesAscending(options.n);
      break;
    case IdentityKind::kRandomPermutation: {
      Rng id_rng = rng.Split(1);
      config.identities = sim::IdentitiesRandom(options.n, id_rng);
      break;
    }
    case IdentityKind::kSparse: {
      Rng id_rng = rng.Split(2);
      config.identities = sim::IdentitiesSparse(options.n, id_rng);
      break;
    }
  }

  switch (options.mapper) {
    case MapperKind::kSenseOfDirection:
      config.mapper = sim::MakeSodMapper(options.n);
      break;
    case MapperKind::kRandom:
      config.mapper = sim::MakeRandomMapper(options.n,
                                            rng.Split(3).Next());
      break;
    case MapperKind::kUpAdversary:
      config.mapper =
          adversary::MakeUpFirstMapper(options.n, options.adversary_k);
      break;
  }

  switch (options.delay) {
    case DelayKind::kUnit:
      config.delays = sim::MakeUnitDelay();
      break;
    case DelayKind::kRandom:
      config.delays = sim::MakeRandomDelay(rng.Split(4).Next());
      break;
    case DelayKind::kEager:
      config.delays = sim::MakeEagerDelay();
      break;
  }

  // Initial failures: a random subset, never including address 0 when it
  // must be a base node (the plans below only wake live nodes).
  if (options.failures > 0) {
    CELECT_CHECK(options.failures < options.n);
    Rng fail_rng = rng.Split(5);
    auto perm = fail_rng.Permutation(options.n);
    config.failed.assign(options.n, false);
    for (std::uint32_t i = 0; i < options.failures; ++i) {
      // Skip address 0 so single-base plans stay valid.
      config.failed[perm[i] == 0 ? perm[options.failures] : perm[i]] = true;
    }
  }

  switch (options.wakeup) {
    case WakeupKind::kAllAtZero:
      config.wakeup = sim::WakeAllAtZero(options.n, config.failed);
      break;
    case WakeupKind::kSingle:
      config.wakeup = sim::WakeSingle(options.n, 0, config.failed);
      break;
    case WakeupKind::kRandomSubset: {
      CELECT_CHECK(options.wakeup_count <= options.n)
          << "wakeup_count " << options.wakeup_count << " exceeds N="
          << options.n;
      std::uint32_t requested = RequestedWakeupCount(options);
      std::uint32_t count = EffectiveWakeupCount(options);
      if (count < requested) {
        CELECT_LOG(Warn) << "kRandomSubset: only " << count
                         << " live nodes; clamping wakeup_count from "
                         << requested;
      }
      Rng wake_rng = rng.Split(6);
      config.wakeup = sim::WakeRandomSubset(
          options.n, count, options.wakeup_window, wake_rng, config.failed);
      break;
    }
    case WakeupKind::kStaggeredChain:
      config.wakeup = sim::WakeStaggeredChain(
          options.n, options.stagger_spacing, config.failed);
      break;
  }

  config.faults = options.fault_plan;

  sim::ValidateConfig(config);
  return config;
}

namespace {

sim::RuntimeOptions RuntimeOptionsFor(const RunOptions& options) {
  sim::RuntimeOptions rt;
  rt.max_events = options.max_events;
  rt.enable_trace = options.enable_trace;
  rt.trace_cap = options.trace_cap;
  rt.enable_telemetry = options.enable_telemetry;
  rt.serialize_packets = options.serialize_packets;
  return rt;
}

}  // namespace

sim::RunResult RunElection(const sim::ProcessFactory& factory,
                           const RunOptions& options) {
  sim::Runtime runtime(BuildNetwork(options), factory,
                       RuntimeOptionsFor(options));
  return runtime.Run();
}

TracedRun RunElectionTraced(const sim::ProcessFactory& factory,
                            const RunOptions& options) {
  sim::RuntimeOptions rt = RuntimeOptionsFor(options);
  rt.enable_trace = true;
  sim::Runtime runtime(BuildNetwork(options), factory, rt);
  TracedRun out;
  out.result = runtime.Run();
  out.records = runtime.trace().records();
  return out;
}

std::string Describe(const RunOptions& o) {
  std::ostringstream os;
  os << "N=" << o.n << " seed=" << o.seed << " mapper=";
  switch (o.mapper) {
    case MapperKind::kSenseOfDirection:
      os << "sod";
      break;
    case MapperKind::kRandom:
      os << "random";
      break;
    case MapperKind::kUpAdversary:
      os << "adversary(k=" << o.adversary_k << ")";
      break;
  }
  os << " delay=";
  switch (o.delay) {
    case DelayKind::kUnit:
      os << "unit";
      break;
    case DelayKind::kRandom:
      os << "random";
      break;
    case DelayKind::kEager:
      os << "eager";
      break;
  }
  os << " wakeup=";
  switch (o.wakeup) {
    case WakeupKind::kAllAtZero:
      os << "all";
      break;
    case WakeupKind::kSingle:
      os << "single";
      break;
    case WakeupKind::kRandomSubset: {
      // Report the count that actually wakes, not just the request.
      std::uint32_t requested = RequestedWakeupCount(o);
      std::uint32_t actual = EffectiveWakeupCount(o);
      os << "subset(" << actual;
      if (actual < requested) os << ", clamped from " << requested;
      os << ")";
      break;
    }
    case WakeupKind::kStaggeredChain:
      os << "staggered(" << o.stagger_spacing << ")";
      break;
  }
  if (o.failures) os << " failures=" << o.failures;
  if (!o.fault_plan.Empty()) {
    os << " faults=[crashes=" << o.fault_plan.crashes.size();
    if (o.fault_plan.link.Any()) {
      os << " loss=" << o.fault_plan.link.loss
         << " dup=" << o.fault_plan.link.duplicate
         << " reorder=" << o.fault_plan.link.reorder;
    }
    os << " seed=" << o.fault_plan.seed << "]";
  }
  return os.str();
}

std::string Summarize(const sim::RunResult& r) {
  std::ostringstream os;
  os << "leader=";
  if (r.leader_id) {
    os << *r.leader_id;
  } else {
    os << "none";
  }
  os << " declarations=" << r.leader_declarations
     << " messages=" << r.total_messages
     << " time=" << r.leader_time.ToDouble()
     << " quiesce=" << r.quiesce_time.ToDouble();
  if (r.faults_injected || r.messages_lost || r.messages_duplicated) {
    os << " crashes=" << r.faults_injected << " lost=" << r.messages_lost
       << " duped=" << r.messages_duplicated;
  }
  if (r.timers_fired) os << " timers=" << r.timers_fired;
  const auto counter = [&r](const char* key) -> std::int64_t {
    const auto it = r.counters.find(key);
    return it == r.counters.end() ? 0 : it->second;
  };
  if (counter("sim.rejoins") > 0) {
    os << " rejoins=" << counter("sim.rejoins");
  }
  if (counter("lease.granted") > 0 || counter("lease.revoked") > 0 ||
      counter("lease.expired") > 0) {
    os << " leases=[granted=" << counter("lease.granted")
       << " renewed=" << counter("lease.renewed")
       << " expired=" << counter("lease.expired")
       << " revoked=" << counter("lease.revoked") << "]";
  }
  if (r.invariant_violations) {
    os << " invariant_violations=" << r.invariant_violations;
  }
  return os.str();
}

}  // namespace celect::harness
