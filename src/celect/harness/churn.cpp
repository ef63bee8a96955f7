#include "celect/harness/churn.h"

#include <algorithm>
#include <sstream>

#include "celect/analysis/invariants.h"
#include "celect/analysis/lease_monitor.h"
#include "celect/harness/sweep.h"
#include "celect/sim/network.h"
#include "celect/sim/runtime.h"
#include "celect/util/check.h"
#include "celect/util/rng.h"

namespace celect::harness {

using sim::CrashSpec;
using sim::FaultPlan;
using sim::Time;

sim::Time DefaultReelectionWindow(const proto::nosod::LeaseParams& lease) {
  // Worst benign gap: a holder crashes right after renewing, so its
  // lease blocks re-election for a full lease_duration. A term started
  // the moment that lease runs out can then stall (its captures landed
  // on just-crashed nodes, or voters' promises had not yet expired when
  // the grant round arrived) and an in-flight term is preempted only
  // once it outlives the watchdog patience — up to
  // kTermPatiencePeriods * the slowest stagger's period, i.e.
  // 4 * (7/4) * election_timeout = 7 timeouts per stalled term. Budget
  // two stalled terms back to back, a completed election with its
  // recovery rounds (~4 timeouts), and a final lease_duration for the
  // acquisition quorum round trips under loss. Generous on purpose: a
  // real liveness bug shows up as a never-closing gap, not a slow one.
  return lease.lease_duration * 2 + lease.election_timeout * 20;
}

proto::nosod::LeaseParams EffectiveLeaseParams(const ChurnOptions& opt) {
  proto::nosod::LeaseParams lease = opt.lease;
  if (lease.f == 0 && opt.churn_nodes > 0 && opt.n >= 4) {
    // At most churn_nodes victims are dead at once; cap at the FT
    // engine's tolerance ceiling 2f < n-1.
    lease.f = std::min(opt.churn_nodes, (opt.n - 2) / 2);
  }
  return lease;
}

namespace {

// Mean up and down phase lengths; each phase is drawn uniformly from
// [mean/2, 3*mean/2) per seed, so victims drift out of phase.
constexpr Time kMeanUptime = Time::FromUnits(6);
constexpr Time kMeanDowntime = Time::FromUnits(3);
// Grace before the first crash, so the first election settles.
constexpr Time kFirstCrashAfter = Time::FromUnits(2);

// Phase length ~ uniform [mean/2, 3*mean/2), at least one tick.
std::int64_t DrawPhase(Rng& rng, Time mean) {
  const std::int64_t m = std::max<std::int64_t>(mean.ticks(), 1);
  return std::max<std::int64_t>(
      1, m / 2 + static_cast<std::int64_t>(
                     rng.NextBelow(static_cast<std::uint64_t>(m))));
}

}  // namespace

FaultPlan MakeChurnPlan(std::uint64_t seed, const ChurnOptions& opt) {
  CELECT_CHECK(opt.churn_nodes < opt.n);
  FaultPlan plan;
  plan.seed = seed;
  plan.link.loss = opt.loss;
  plan.link.duplicate = opt.duplicate;
  plan.link.reorder = opt.reorder;

  // An independent stream (distinct from the chaos planner's and from
  // BuildNetwork's delay/mapper draws on the same seed).
  Rng rng = Rng(seed).Split(0xC512);
  auto victims = rng.Permutation(opt.n);
  const std::int64_t horizon = opt.lease.horizon.ticks();
  for (std::uint32_t i = 0; i < opt.churn_nodes; ++i) {
    const sim::NodeId node = victims[i];
    // Stagger the first crash per victim so they drift out of phase.
    std::int64_t t = kFirstCrashAfter.ticks() + DrawPhase(rng, kMeanUptime);
    bool down = false;
    while (t < horizon) {
      if (!down) {
        CrashSpec spec;
        spec.node = node;
        spec.trigger = CrashSpec::Trigger::kAtTime;
        spec.at = Time::FromTicks(t);
        plan.crashes.push_back(spec);
        down = true;
        t += DrawPhase(rng, kMeanDowntime);
      } else {
        plan.rejoins.push_back({node, Time::FromTicks(t)});
        down = false;
        t += DrawPhase(rng, kMeanUptime);
      }
    }
  }
  return plan;
}

ChurnCaseResult RunChurnCase(std::uint64_t seed, const ChurnOptions& opt) {
  ChurnCaseResult out;
  out.seed = seed;
  out.plan = MakeChurnPlan(seed, opt);

  RunOptions ro;
  ro.n = opt.n;
  ro.seed = seed;
  ro.mapper = opt.mapper;
  ro.delay = opt.delay;
  ro.wakeup = WakeupKind::kAllAtZero;
  ro.max_events = opt.max_events;
  ro.fault_plan = out.plan;

  // The registry rides chained behind the monitor on the single
  // observer slot. unique_leader is off: the service re-declares a
  // leader every term by design; instant safety is the lease-overlap
  // check instead.
  analysis::InvariantOptions io;
  io.unique_leader = false;
  analysis::InvariantRegistry registry(io);

  const proto::nosod::LeaseParams lease = EffectiveLeaseParams(opt);
  analysis::LeaseMonitorOptions mo;
  mo.horizon = lease.horizon;
  mo.reelection_window = opt.reelection_window.ticks() > 0
                             ? opt.reelection_window
                             : DefaultReelectionWindow(lease);
  mo.chained = &registry;
  analysis::LeaseMonitor monitor(mo);

  sim::RuntimeOptions rt;
  rt.max_events = opt.max_events;
  rt.enable_telemetry = opt.enable_telemetry;
  rt.observer = &monitor;
  sim::Runtime runtime(BuildNetwork(ro),
                       proto::nosod::MakeLeaseEngine(lease), rt);
  out.result = runtime.Run();
  out.failed_after = runtime.failed();
  out.unavailable_ticks = monitor.unavailable_ticks();
  out.elections_completed = monitor.election_latency().count();
  out.election_latency = monitor.election_latency();
  // Ride the telemetry bundle so sweeps and the bench JSON pick the
  // histogram up through the ordinary merge path.
  out.result.telemetry.election_latency.Merge(monitor.election_latency());

  std::ostringstream v;
  if (!monitor.ok()) v << "LIVENESS: " << monitor.Summary();
  if (!registry.ok()) {
    if (v.tellp() > 0) v << "; ";
    v << "INVARIANT: " << registry.Summary();
  }
  out.violation = v.str();
  return out;
}

ChurnSweepResult SweepChurn(std::uint64_t seed0, std::uint32_t count,
                            const ChurnOptions& opt) {
  std::vector<ChurnCaseResult> cases(count);
  ParallelFor(count, opt.threads, [&](std::size_t i) {
    cases[i] = RunChurnCase(seed0 + i, opt);
  });
  ChurnSweepResult sweep;
  const auto counter = [](const sim::RunResult& r,
                          const char* key) -> std::uint64_t {
    const auto it = r.counters.find(key);
    return it == r.counters.end()
               ? 0
               : static_cast<std::uint64_t>(it->second);
  };
  for (ChurnCaseResult& c : cases) {
    ++sweep.cases;
    sweep.crashes_injected += c.result.faults_injected;
    sweep.rejoins += counter(c.result, "sim.rejoins");
    sweep.messages_lost += c.result.messages_lost;
    sweep.elections_completed += c.elections_completed;
    sweep.unavailable_ticks += c.unavailable_ticks;
    sweep.leases_granted += counter(c.result, "lease.granted");
    sweep.leases_renewed += counter(c.result, "lease.renewed");
    sweep.leases_expired += counter(c.result, "lease.expired");
    sweep.leases_revoked += counter(c.result, "lease.revoked");
    sweep.messages.Add(static_cast<double>(c.result.total_messages));
    sweep.time.Add(c.result.quiesce_time.ToDouble());
    sweep.wall_ns += c.result.wall_ns;
    sweep.events_processed += c.result.events_processed;
    sweep.telemetry.Merge(c.result.telemetry);
    if (!c.violation.empty()) sweep.violations.push_back(std::move(c));
  }
  return sweep;
}

std::string Describe(const ChurnCaseResult& c) {
  std::ostringstream os;
  os << "seed=" << c.seed << " " << Summarize(c.result)
     << " elections=" << c.elections_completed
     << " unavailable_ticks=" << c.unavailable_ticks;
  os << (c.violation.empty() ? " OK" : " " + c.violation);
  return os.str();
}

}  // namespace celect::harness
