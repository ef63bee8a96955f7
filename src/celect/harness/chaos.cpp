#include "celect/harness/chaos.h"

#include <algorithm>
#include <sstream>

#include "celect/analysis/invariants.h"
#include "celect/harness/registry.h"
#include "celect/harness/sweep.h"
#include "celect/sim/network.h"
#include "celect/sim/runtime.h"
#include "celect/util/check.h"
#include "celect/util/rng.h"

namespace celect::harness {

using sim::CrashSpec;
using sim::FaultPlan;
using sim::Time;

FaultPlan MakeChaosPlan(std::uint64_t seed, const ChaosOptions& opt) {
  CELECT_CHECK(opt.max_crashes < opt.n);
  FaultPlan plan;
  plan.seed = seed;
  plan.link.loss = opt.loss;
  plan.link.duplicate = opt.duplicate;
  plan.link.reorder = opt.reorder;

  // An independent stream: the plan must not perturb the delay/mapper
  // draws made by BuildNetwork from the same seed.
  Rng rng = Rng(seed).Split(0xFA17);
  auto victims = rng.Permutation(opt.n);
  for (std::uint32_t i = 0; i < opt.max_crashes; ++i) {
    CrashSpec spec;
    spec.node = victims[i];
    switch (rng.NextBelow(4)) {
      case 0:
        spec.trigger = CrashSpec::Trigger::kAtTime;
        // Early in the run, while captures are still in flight.
        spec.at = Time::FromTicks(static_cast<std::int64_t>(
            rng.NextBelow(2 * Time::kTicksPerUnit)));
        break;
      case 1:
        spec.trigger = CrashSpec::Trigger::kAfterSends;
        spec.count = 1 + rng.NextBelow(opt.n);
        break;
      case 2:
        spec.trigger = CrashSpec::Trigger::kAfterReceives;
        spec.count = 1 + rng.NextBelow(opt.n);
        break;
      default:
        // Die on the first capture-phase message instead of processing
        // it — the classic mid-handshake adversary. Types 1..8 cover the
        // capture/forward handshakes of every protocol in the registry;
        // a type the node never receives simply leaves the trigger cold.
        spec.trigger = CrashSpec::Trigger::kOnMessageType;
        spec.message_type = static_cast<std::uint16_t>(1 + rng.NextBelow(8));
        break;
    }
    plan.crashes.push_back(spec);
  }
  return plan;
}

ChaosCaseResult RunChaosCase(const sim::ProcessFactory& factory,
                             std::uint64_t seed, const ChaosOptions& opt) {
  ChaosCaseResult out;
  out.seed = seed;
  out.plan = MakeChaosPlan(seed, opt);

  RunOptions ro;
  ro.n = opt.n;
  ro.seed = seed;
  ro.mapper = opt.mapper;
  ro.delay = opt.delay;
  ro.wakeup = opt.wakeup;
  ro.fault_plan = out.plan;

  // Every case runs per-event invariant checking: the registry adds
  // monotone observables and message conservation. Leader-count
  // verdicts stay below (they carry the crash/loss context).
  analysis::InvariantOptions io;
  io.unique_leader = false;
  analysis::InvariantRegistry registry(io);

  sim::RuntimeOptions rt;
  rt.enable_telemetry = opt.enable_telemetry;
  rt.observer = &registry;
  sim::Runtime runtime(BuildNetwork(ro), factory, rt);
  out.result = runtime.Run();
  out.failed_after = runtime.failed();

  const auto& r = out.result;
  std::ostringstream v;
  if (r.leader_declarations > 1) {
    v << "SAFETY: " << r.leader_declarations << " leader declarations";
  } else if (opt.require_leader && r.leader_declarations == 0) {
    v << "LIVENESS: no leader elected (" << r.faults_injected
      << " crashes, " << r.messages_lost << " lost)";
  } else if (opt.require_live_leader && r.leader_node &&
             out.failed_after[*r.leader_node]) {
    v << "LIVENESS: declared leader (node " << *r.leader_node
      << ") crashed";
  }
  if (!registry.ok()) {
    if (v.tellp() > 0) v << "; ";
    v << "INVARIANT: " << registry.Summary();
  }
  out.violation = v.str();
  return out;
}

ChaosSweepResult SweepChaos(const sim::ProcessFactory& factory,
                            std::uint64_t seed0, std::uint32_t count,
                            const ChaosOptions& opt) {
  // Fan the independent seeded cases over the worker pool, then reduce
  // in seed order — same totals and violation order as a serial sweep.
  std::vector<ChaosCaseResult> cases(count);
  ParallelFor(count, opt.threads, [&](std::size_t i) {
    cases[i] = RunChaosCase(factory, seed0 + i, opt);
  });
  ChaosSweepResult sweep;
  for (ChaosCaseResult& c : cases) {
    ++sweep.cases;
    sweep.crashes_injected += c.result.faults_injected;
    sweep.messages_lost += c.result.messages_lost;
    sweep.messages_duplicated += c.result.messages_duplicated;
    sweep.messages_reordered += c.result.messages_reordered;
    sweep.timers_fired += c.result.timers_fired;
    sweep.messages.Add(static_cast<double>(c.result.total_messages));
    sweep.time.Add(c.result.leader_time.ToDouble());
    sweep.wall_ns += c.result.wall_ns;
    sweep.events_processed += c.result.events_processed;
    sweep.telemetry.Merge(c.result.telemetry);
    if (!c.violation.empty()) sweep.violations.push_back(std::move(c));
  }
  return sweep;
}

RegistryChaosReport SweepRegistryChaos(std::uint64_t seed0,
                                       std::uint32_t seeds_per_protocol,
                                       std::uint32_t n,
                                       std::uint32_t threads) {
  RegistryChaosReport report;
  for (const auto& spec : AllProtocols()) {
    if (spec.needs_power_of_two && (n & (n - 1)) != 0) continue;
    ChaosOptions opt;
    opt.n = n;
    opt.max_crashes = 1;
    opt.loss = 0.02;
    opt.threads = threads;
    // No duplication here: only the FT protocol is replay-hardened.
    opt.require_leader = false;
    opt.require_live_leader = false;
    opt.mapper = spec.needs_sense_of_direction ? MapperKind::kSenseOfDirection
                                               : MapperKind::kRandom;
    const sim::ProcessFactory factory = spec.make(0);
    ChaosSweepResult sweep =
        SweepChaos(factory, seed0, seeds_per_protocol, opt);
    report.cases += sweep.cases;
    for (auto& c : sweep.violations) {
      report.violations.push_back({spec.name, c.seed, c.violation});
    }
  }
  return report;
}

namespace {
std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  // splitmix-style mix keeps the digest stable across platforms.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 27);
}
}  // namespace

std::uint64_t FingerprintResult(const sim::RunResult& r) {
  std::uint64_t h = 0x5eed;
  h = HashCombine(h, r.leader_id ? 1 + *r.leader_id : 0);
  h = HashCombine(h, r.leader_node ? 1 + *r.leader_node : 0);
  h = HashCombine(h, r.leader_declarations);
  h = HashCombine(h, static_cast<std::uint64_t>(r.leader_time.ticks()));
  h = HashCombine(h, static_cast<std::uint64_t>(r.quiesce_time.ticks()));
  h = HashCombine(h, r.total_messages);
  h = HashCombine(h, r.total_bytes);
  h = HashCombine(h, r.events_processed);
  h = HashCombine(h, r.max_link_load);
  h = HashCombine(h, r.max_link_inflight);
  h = HashCombine(h, r.faults_injected);
  h = HashCombine(h, r.messages_lost);
  h = HashCombine(h, r.messages_duplicated);
  h = HashCombine(h, r.messages_reordered);
  h = HashCombine(h, r.timers_set);
  h = HashCombine(h, r.timers_fired);
  for (const auto& [type, count] : r.messages_by_type) {
    h = HashCombine(h, type);
    h = HashCombine(h, count);
  }
  for (const auto& [name, value] : r.counters) {
    for (char c : name) h = HashCombine(h, static_cast<unsigned char>(c));
    h = HashCombine(h, static_cast<std::uint64_t>(value));
  }
  for (const auto& [key, agg] : r.phases) {
    for (char c : key) h = HashCombine(h, static_cast<unsigned char>(c));
    h = HashCombine(h, agg.spans);
    h = HashCombine(h, static_cast<std::uint64_t>(agg.ticks));
    h = HashCombine(h, agg.messages);
  }
  return h;
}

std::string Describe(const ChaosCaseResult& c) {
  std::ostringstream os;
  os << "seed=" << c.seed << " " << Summarize(c.result);
  os << (c.violation.empty() ? " OK" : " " + c.violation);
  return os.str();
}

}  // namespace celect::harness
