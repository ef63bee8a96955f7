// The node-indexed LeaseMonitor and InvariantRegistry against a
// reference copy of their earlier map-based versions: seeded random
// scripts drive both through the same events, and every measurement,
// violation string and invariant.* counter must agree. Also shows that
// a monitor with a chained registry builds the event target's
// observables once per event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "celect/analysis/invariants.h"
#include "celect/analysis/lease_monitor.h"
#include "celect/harness/churn.h"
#include "celect/sim/runtime.h"

namespace celect::analysis {
namespace {

// ---- Reference observers: the map-based versions, kept as they were
// (each builds Observe() itself) except for the max-id snapshot, which
// takes the fix of counting only live nodes. ----------------------------

constexpr std::size_t kMaxRecorded = 64;

class MapInvariantRegistry : public sim::RunObserver {
 public:
  explicit MapInvariantRegistry(InvariantOptions opt) : opt_(opt) {}

  void AfterEvent(sim::NodeId target, const sim::RunInspect& in) override {
    if (!expected_leader_known_) {
      // The registry's fixed snapshot: the largest id over live nodes.
      expected_leader_known_ = true;
      bool any = false;
      for (sim::NodeId i = 0; i < in.n; ++i) {
        if ((*in.failed)[i]) continue;
        expected_leader_ =
            any ? std::max(expected_leader_, (*in.ids)[i]) : (*in.ids)[i];
        any = true;
      }
    }
    if (was_failed_.empty()) was_failed_.assign(in.n, 0);
    const bool alive = !(*in.failed)[target];
    if (alive && was_failed_[target]) {
      for (auto it = last_.lower_bound({target, std::string()});
           it != last_.end() && it->first.first == target;) {
        it = last_.erase(it);
      }
      lease_claims_.erase(target);
    }
    was_failed_[target] = alive ? 0 : 1;
    CheckLeader(in);
    if (alive) {
      const sim::ProtocolObservables obs = in.process(target).Observe();
      CheckMonotone(target, in, obs);
      CheckLease(target, in, &obs);
    } else {
      CheckLease(target, in, nullptr);
    }
    CheckConservation(in);
  }

  void AtQuiescence(const sim::RunInspect& in) override {
    CheckConservation(in);
    if (in.deliveries_inflight != 0) {
      std::ostringstream os;
      os << in.deliveries_inflight << " deliveries in flight at quiescence";
      Violate(in, kInvConservation, os.str());
    }
    if (!opt_.quiescence_termination) return;
    if (in.metrics->leader_declarations() == 0) {
      Violate(in, kInvNoTermination, "quiescent with no leader declared");
    }
    for (sim::NodeId i = 0; i < in.n; ++i) {
      if ((*in.failed)[i]) continue;
      const auto obs = in.process(i).Observe();
      if (obs.terminated.has_value() && !*obs.terminated) {
        std::ostringstream os;
        os << "node " << i << " still mid-pursuit at quiescence ("
           << in.process(i).DescribeState() << ")";
        Violate(in, kInvNoTermination, os.str());
      }
    }
  }

  const std::vector<std::string>& violations() const { return violations_; }

 private:
  void Violate(const sim::RunInspect& in, const char* kind,
               std::string what) {
    in.metrics->RecordInvariantViolation(kind);
    if (violations_.size() < kMaxRecorded) {
      violations_.push_back(std::string(kind) + ": " + std::move(what));
    }
  }

  void CheckLeader(const sim::RunInspect& in) {
    const sim::Metrics& m = *in.metrics;
    if (opt_.unique_leader && m.leader_declarations() > 1 &&
        !multiple_reported_) {
      multiple_reported_ = true;
      std::ostringstream os;
      os << m.leader_declarations()
         << " leader declarations (last leader id " << *m.leader_id() << ")";
      Violate(in, kInvMultipleLeaders, os.str());
    }
    if (opt_.leader_is_max_id && m.leader_declarations() > 0 &&
        !max_id_reported_ && *m.leader_id() != expected_leader_) {
      max_id_reported_ = true;
      std::ostringstream os;
      os << "leader id " << *m.leader_id() << ", expected max id "
         << expected_leader_;
      Violate(in, kInvLeaderNotMaxId, os.str());
    }
  }

  void CheckMonotone(sim::NodeId target, const sim::RunInspect& in,
                     const sim::ProtocolObservables& obs) {
    for (const auto& [name, value] : obs.monotone) {
      auto [it, inserted] = last_.try_emplace({target, name}, value);
      if (inserted) continue;
      if (value < it->second) {
        std::ostringstream os;
        os << "node " << target << " gauge '" << name << "' fell from "
           << it->second << " to " << value;
        Violate(in, kInvMonotoneRegression, os.str());
      }
      it->second = std::max(it->second, value);
    }
  }

  void CheckLease(sim::NodeId target, const sim::RunInspect& in,
                  const sim::ProtocolObservables* obs) {
    if (obs != nullptr && obs->lease.has_value()) {
      lease_claims_[target] = *obs->lease;
    } else {
      lease_claims_.erase(target);
    }
    sim::NodeId holder = 0;
    bool found = false;
    for (const auto& [node, claim] : lease_claims_) {
      if (claim.deadline < in.now) continue;
      if (!found) {
        holder = node;
        found = true;
        continue;
      }
      if (lease_pairs_reported_.insert({holder, node}).second) {
        std::ostringstream os;
        os << "nodes " << holder << " and " << node
           << " both hold unexpired leases at t=" << in.now.ticks()
           << " (terms " << lease_claims_[holder].term << " and "
           << claim.term << ")";
        Violate(in, kInvLeaseOverlap, os.str());
      }
    }
  }

  void CheckConservation(const sim::RunInspect& in) {
    const sim::Metrics& m = *in.metrics;
    const std::uint64_t sent = m.messages_sent() + m.messages_duplicated();
    const std::uint64_t accounted =
        m.messages_delivered() + m.messages_dropped() + in.deliveries_inflight;
    if (sent != accounted) {
      std::ostringstream os;
      os << "sent+duplicated=" << sent << " but delivered+dropped+inflight="
         << accounted;
      Violate(in, kInvConservation, os.str());
    }
  }

  InvariantOptions opt_;
  std::vector<std::string> violations_;
  std::map<std::pair<sim::NodeId, std::string>, std::int64_t> last_;
  std::map<sim::NodeId, sim::ProtocolObservables::LeaseClaim> lease_claims_;
  std::set<std::pair<sim::NodeId, sim::NodeId>> lease_pairs_reported_;
  std::vector<char> was_failed_;
  sim::Id expected_leader_ = 0;
  bool expected_leader_known_ = false;
  bool multiple_reported_ = false;
  bool max_id_reported_ = false;
};

class MapLeaseMonitor : public sim::RunObserver {
 public:
  explicit MapLeaseMonitor(LeaseMonitorOptions opt) : opt_(opt) {}

  void AfterEvent(sim::NodeId target, const sim::RunInspect& in) override {
    Integrate(in, in.now);
    ObserveTarget(target, in);
    if (gap_open_ && CoverMax() >= last_now_) {
      gap_open_ = false;
      const std::int64_t len =
          std::max<std::int64_t>(last_now_ - gap_start_, 0);
      election_latency_.Add(static_cast<std::uint64_t>(len));
      if (!overdue_reported_ && opt_.reelection_window.ticks() > 0 &&
          len > opt_.reelection_window.ticks() &&
          gap_start_ + opt_.reelection_window.ticks() <=
              opt_.horizon.ticks()) {
        overdue_reported_ = true;
        std::ostringstream os;
        os << "coverage gap from t=" << gap_start_ << " closed only at t="
           << last_now_ << " (" << len << " ticks > window "
           << opt_.reelection_window.ticks() << ")";
        Violate(in, os.str());
      }
    }
    if (opt_.chained != nullptr) opt_.chained->AfterEvent(target, in);
  }

  void AtQuiescence(const sim::RunInspect& in) override {
    Integrate(in, in.now);
    if (gap_open_ && !overdue_reported_ &&
        opt_.reelection_window.ticks() > 0 &&
        gap_start_ + opt_.reelection_window.ticks() <= opt_.horizon.ticks()) {
      overdue_reported_ = true;
      std::ostringstream os;
      os << "coverage gap open since t=" << gap_start_
         << " never closed (quiesced at t=" << in.now.ticks() << ")";
      Violate(in, os.str());
    }
    if (opt_.chained != nullptr) opt_.chained->AtQuiescence(in);
  }

  std::int64_t unavailable_ticks() const { return unavailable_ticks_; }
  const obs::Histogram& election_latency() const { return election_latency_; }
  const std::vector<LeaseMonitor::Segment>& timeline() const {
    return timeline_;
  }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  void Violate(const sim::RunInspect& in, std::string what) {
    in.metrics->RecordInvariantViolation(kInvReelectionOverdue);
    if (violations_.size() < kMaxRecorded) {
      violations_.push_back(std::string(kInvReelectionOverdue) + ": " +
                            std::move(what));
    }
  }

  std::int64_t CoverMax() const {
    std::int64_t m = -1;
    for (const auto& [node, until] : cover_) m = std::max(m, until);
    return m;
  }

  void Integrate(const sim::RunInspect& in, sim::Time now) {
    const std::int64_t t = now.ticks();
    if (t <= last_now_) return;
    const std::int64_t cover = CoverMax();
    const std::int64_t from = std::max(last_now_, cover + 1);
    const std::int64_t to = std::min(t, opt_.horizon.ticks());
    if (to > from) unavailable_ticks_ += to - from;
    if (!gap_open_ && cover < t) {
      gap_open_ = true;
      gap_start_ = std::max(cover + 1, last_now_);
      overdue_reported_ = false;
    }
    if (gap_open_ && !overdue_reported_ &&
        opt_.reelection_window.ticks() > 0) {
      const std::int64_t w = opt_.reelection_window.ticks();
      if (gap_start_ + w <= opt_.horizon.ticks() && t - gap_start_ > w) {
        overdue_reported_ = true;
        std::ostringstream os;
        os << "coverage gap open since t=" << gap_start_
           << " still unclosed at t=" << t << " (window " << w << " ticks)";
        Violate(in, os.str());
      }
    }
    last_now_ = t;
  }

  void CloseSegment(sim::NodeId node, sim::Time at) {
    auto it = open_segment_.find(node);
    if (it == open_segment_.end()) return;
    timeline_[it->second].dropped_at = at;
    open_segment_.erase(it);
  }

  void ObserveTarget(sim::NodeId target, const sim::RunInspect& in) {
    const std::int64_t t = in.now.ticks();
    std::optional<sim::ProtocolObservables::LeaseClaim> claim;
    if (!(*in.failed)[target]) claim = in.process(target).Observe().lease;
    if (claim.has_value() && claim->deadline.ticks() >= t) {
      cover_[target] = claim->deadline.ticks();
      const auto ct = claimed_term_.find(target);
      if (ct == claimed_term_.end() || ct->second != claim->term) {
        CloseSegment(target, in.now);
        claimed_term_[target] = claim->term;
        if (timeline_.size() < opt_.max_timeline) {
          open_segment_[target] = timeline_.size();
          timeline_.push_back({target, claim->term, in.now, claim->deadline,
                               sim::Time::Max()});
        }
      } else {
        const auto os = open_segment_.find(target);
        if (os != open_segment_.end()) {
          LeaseMonitor::Segment& seg = timeline_[os->second];
          seg.last_deadline = std::max(seg.last_deadline, claim->deadline);
        }
      }
    } else {
      const auto cv = cover_.find(target);
      if (cv != cover_.end()) cv->second = std::min(cv->second, t);
      if (claimed_term_.erase(target) > 0) CloseSegment(target, in.now);
    }
  }

  LeaseMonitorOptions opt_;
  std::vector<std::string> violations_;
  std::map<sim::NodeId, std::int64_t> cover_;
  std::map<sim::NodeId, std::int64_t> claimed_term_;
  std::map<sim::NodeId, std::size_t> open_segment_;
  std::vector<LeaseMonitor::Segment> timeline_;
  std::int64_t last_now_ = 0;
  std::int64_t unavailable_ticks_ = 0;
  bool gap_open_ = true;
  std::int64_t gap_start_ = 0;
  bool overdue_reported_ = false;
  obs::Histogram election_latency_;
};

// ---- Scripted runs ----------------------------------------------------

// A node whose observables are whatever the script last set.
class ScriptedNode : public sim::Process {
 public:
  void OnWakeup(sim::Context&) override {}
  void OnMessage(sim::Context&, sim::Port, const wire::Packet&) override {}
  sim::ProtocolObservables Observe() const override {
    ++observe_calls;
    return obs;
  }

  sim::ProtocolObservables obs;
  mutable int observe_calls = 0;
};

// Gauge names a scripted node draws from; nodes keep their names in
// order, except when the script renames or reorders them.
constexpr const char* kNames[] = {"level", "phase", "step", "dead", "term"};

struct NodeScript {
  std::vector<const char*> names;
  std::vector<std::int64_t> values;
  std::int64_t term = 1;
};

// What the scripts exercised, summed over every seed.
struct Coverage {
  int rejoins = 0;
  int expired_claims = 0;
  int term_changes = 0;
  int timeline_capped = 0;
  std::map<std::string, std::int64_t> violations;
};

bool SameSegments(const std::vector<LeaseMonitor::Segment>& a,
                  const std::vector<LeaseMonitor::Segment>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || a[i].term != b[i].term ||
        a[i].granted_at != b[i].granted_at ||
        a[i].last_deadline != b[i].last_deadline ||
        a[i].dropped_at != b[i].dropped_at) {
      return false;
    }
  }
  return true;
}

void RunScript(std::uint64_t seed, Coverage& cov) {
  std::mt19937_64 rng(seed);
  auto below = [&](std::uint64_t bound) {
    return static_cast<std::int64_t>(rng() % bound);
  };
  auto chance = [&](int percent) { return below(100) < percent; };
  const auto n = static_cast<std::uint32_t>(2 + rng() % 5);
  std::vector<sim::Id> ids(n);
  for (sim::NodeId i = 0; i < n; ++i) ids[i] = 10 * (i + 1);
  std::shuffle(ids.begin(), ids.end(), rng);
  std::vector<bool> failed(n, false);
  for (sim::NodeId i = 0; i < n; ++i) failed[i] = chance(20);
  failed[rng() % n] = false;

  std::vector<std::unique_ptr<sim::Process>> procs;
  std::vector<ScriptedNode*> nodes;
  std::vector<NodeScript> scripts(n);
  for (sim::NodeId i = 0; i < n; ++i) {
    auto p = std::make_unique<ScriptedNode>();
    nodes.push_back(p.get());
    procs.push_back(std::move(p));
    const std::size_t k = rng() % 6;
    for (std::size_t g = 0; g < k; ++g) {
      scripts[i].names.push_back(kNames[(i + g) % std::size(kNames)]);
      scripts[i].values.push_back(0);
    }
  }

  InvariantOptions io;
  io.unique_leader = true;
  io.leader_is_max_id = true;
  io.quiescence_termination = chance(50);
  LeaseMonitorOptions mo;
  mo.horizon = sim::Time::FromTicks(100 + below(500));
  mo.reelection_window = sim::Time::FromTicks(chance(25) ? 0 : 5 + below(40));
  mo.max_timeline = 1 + rng() % 8;

  MapInvariantRegistry ref_registry(io);
  InvariantRegistry registry(io);
  LeaseMonitorOptions ref_mo = mo;
  ref_mo.chained = &ref_registry;
  mo.chained = &registry;
  MapLeaseMonitor ref_monitor(ref_mo);
  LeaseMonitor monitor(mo);
  sim::Metrics ref_metrics;
  sim::Metrics metrics;

  sim::Time now = sim::Time::Zero();
  std::uint64_t inflight = 0;
  auto inspect = [&](sim::Metrics& m, std::uint64_t reported_inflight) {
    sim::RunInspect in;
    in.n = n;
    in.ids = &ids;
    in.failed = &failed;
    in.processes = procs.data();
    in.metrics = &m;
    in.now = now;
    in.deliveries_inflight = reported_inflight;
    return in;
  };

  for (int step = 0; step < 400; ++step) {
    const auto target = static_cast<sim::NodeId>(rng() % n);
    NodeScript& sc = scripts[target];
    // Crash or rejoin the target; a rejoined node restarts from zero.
    if (chance(6)) {
      failed[target] = !failed[target];
      if (!failed[target]) {
        ++cov.rejoins;
        std::fill(sc.values.begin(), sc.values.end(), 0);
      }
    }
    for (std::int64_t& v : sc.values) {
      v += chance(3) ? -1 : static_cast<std::int64_t>(rng() % 3);
    }
    if (chance(2) && !sc.names.empty()) {
      std::rotate(sc.names.begin(), sc.names.begin() + 1, sc.names.end());
    }
    if (chance(2) && sc.names.size() < 5) {
      sc.names.push_back(kNames[rng() % std::size(kNames)]);
      sc.values.push_back(0);
    }
    sim::ProtocolObservables obs;
    for (std::size_t g = 0; g < sc.names.size(); ++g) {
      obs.monotone.emplace_back(sc.names[g], sc.values[g]);
    }
    if (chance(40)) {
      if (chance(10)) {
        ++sc.term;
        ++cov.term_changes;
      }
      const sim::Time deadline = now + sim::Time::FromTicks(below(40) - 8);
      if (deadline < now) ++cov.expired_claims;
      obs.lease = sim::ProtocolObservables::LeaseClaim{sc.term, deadline};
    }
    if (chance(50)) obs.terminated = chance(50);
    nodes[target]->obs = obs;

    now = now + sim::Time::FromTicks(chance(3) ? 60 : below(6));
    // The same accounting on both sides, now and then unbalanced.
    if (chance(1)) {
      ref_metrics.RecordLeader(target, ids[target], now);
      metrics.RecordLeader(target, ids[target], now);
    }
    if (chance(30)) {
      ref_metrics.RecordSend(1, 10);
      metrics.RecordSend(1, 10);
      ++inflight;
    }
    if (inflight > 0 && chance(25)) {
      ref_metrics.RecordDelivery();
      metrics.RecordDelivery();
      --inflight;
    }
    const std::uint64_t reported = chance(1) ? inflight + 1 : inflight;

    ref_monitor.AfterEvent(target, inspect(ref_metrics, reported));
    nodes[target]->observe_calls = 0;
    monitor.AfterEvent(target, inspect(metrics, reported));
    ASSERT_EQ(nodes[target]->observe_calls, failed[target] ? 0 : 1)
        << "seed " << seed << " step " << step;
    ASSERT_EQ(monitor.unavailable_ticks(), ref_monitor.unavailable_ticks())
        << "seed " << seed << " step " << step;
  }
  ref_monitor.AtQuiescence(inspect(ref_metrics, inflight));
  monitor.AtQuiescence(inspect(metrics, inflight));

  EXPECT_EQ(monitor.unavailable_ticks(), ref_monitor.unavailable_ticks())
      << "seed " << seed;
  EXPECT_TRUE(monitor.election_latency() == ref_monitor.election_latency())
      << "seed " << seed;
  EXPECT_TRUE(SameSegments(monitor.timeline(), ref_monitor.timeline()))
      << "seed " << seed;
  EXPECT_EQ(monitor.violations(), ref_monitor.violations()) << "seed " << seed;
  EXPECT_EQ(registry.violations(), ref_registry.violations())
      << "seed " << seed;
  EXPECT_EQ(metrics.registry().counters(), ref_metrics.registry().counters())
      << "seed " << seed;
  EXPECT_EQ(metrics.invariant_violations(), ref_metrics.invariant_violations())
      << "seed " << seed;

  if (monitor.timeline().size() == mo.max_timeline) ++cov.timeline_capped;
  for (const auto& [name, value] : metrics.registry().counters()) {
    cov.violations[name] += value;
  }
}

TEST(ObserverEquivalence, NodeIndexedObserversMatchTheMapBasedOnes) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    RunScript(seed, cov);
    if (HasFatalFailure()) return;
  }
  // The scripts reached every path the change touched.
  EXPECT_GT(cov.rejoins, 0);
  EXPECT_GT(cov.expired_claims, 0);
  EXPECT_GT(cov.term_changes, 0);
  EXPECT_GT(cov.timeline_capped, 0);
  for (const char* kind :
       {kInvLeaseOverlap, kInvMonotoneRegression, kInvReelectionOverdue,
        kInvConservation, kInvMultipleLeaders, kInvLeaderNotMaxId}) {
    EXPECT_GT(cov.violations[std::string("invariant.") + kind], 0) << kind;
  }
}

TEST(GaugeListDeathTest, OverflowCheckFails) {
  sim::GaugeList gauges;
  for (std::size_t i = 0; i < sim::GaugeList::kCapacity; ++i) {
    gauges.emplace_back("g", static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(gauges.size(), sim::GaugeList::kCapacity);
  EXPECT_DEATH(gauges.emplace_back("one too many", 0), "monotone gauges");
}

// ---- Once-per-event observation in a real run -------------------------

// Forwards to the lease engine and counts Observe() calls.
class CountingProcess : public sim::Process {
 public:
  CountingProcess(std::unique_ptr<sim::Process> inner, std::uint64_t* calls)
      : inner_(std::move(inner)), calls_(calls) {}
  void OnWakeup(sim::Context& ctx) override { inner_->OnWakeup(ctx); }
  void OnMessage(sim::Context& ctx, sim::Port port,
                 const wire::Packet& p) override {
    inner_->OnMessage(ctx, port, p);
  }
  void OnTimer(sim::Context& ctx, sim::TimerId timer) override {
    inner_->OnTimer(ctx, timer);
  }
  void OnRejoin(sim::Context& ctx) override { inner_->OnRejoin(ctx); }
  sim::ProtocolObservables Observe() const override {
    ++*calls_;
    return inner_->Observe();
  }

 private:
  std::unique_ptr<sim::Process> inner_;
  std::uint64_t* calls_;
};

// Counts events whose target is alive, then forwards.
class EventCounter : public sim::RunObserver {
 public:
  explicit EventCounter(sim::RunObserver& inner) : inner_(inner) {}
  void AfterEvent(sim::NodeId target, const sim::RunInspect& in) override {
    if (!(*in.failed)[target]) ++live_events;
    inner_.AfterEvent(target, in);
  }
  void AtQuiescence(const sim::RunInspect& in) override {
    inner_.AtQuiescence(in);
  }
  std::uint64_t live_events = 0;

 private:
  sim::RunObserver& inner_;
};

TEST(ObserverEquivalence, ChainedObserversObserveOncePerEvent) {
  harness::ChurnOptions opt;
  opt.n = 16;
  opt.churn_nodes = 3;
  opt.lease.horizon = sim::Time::FromUnits(200);
  const proto::nosod::LeaseParams lease = harness::EffectiveLeaseParams(opt);
  std::uint64_t calls = 0;
  const sim::ProcessFactory inner = proto::nosod::MakeLeaseEngine(lease);
  const sim::ProcessFactory counted = [&](const sim::ProcessInit& init) {
    return std::make_unique<CountingProcess>(inner(init), &calls);
  };

  harness::RunOptions ro;
  ro.n = opt.n;
  ro.seed = 5;
  ro.mapper = opt.mapper;
  ro.delay = opt.delay;
  ro.fault_plan = harness::MakeChurnPlan(ro.seed, opt);
  InvariantOptions io;
  io.unique_leader = false;
  InvariantRegistry registry(io);
  LeaseMonitorOptions mo;
  mo.horizon = lease.horizon;
  mo.reelection_window = harness::DefaultReelectionWindow(lease);
  mo.chained = &registry;
  LeaseMonitor monitor(mo);
  EventCounter counter(monitor);
  sim::RuntimeOptions rto;
  rto.observer = &counter;
  sim::Runtime rt(harness::BuildNetwork(ro), counted, rto);
  const sim::RunResult r = rt.Run();

  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_GT(monitor.election_latency().count(), 0u);
  EXPECT_TRUE(monitor.ok()) << monitor.Summary();
  EXPECT_TRUE(registry.ok()) << registry.Summary();
  ASSERT_GT(counter.live_events, 0u);
  EXPECT_EQ(calls, counter.live_events);
}

}  // namespace
}  // namespace celect::analysis
