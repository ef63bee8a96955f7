#include "celect/analysis/invariants.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

namespace celect::analysis {

namespace {
// Readable-violation cap; tallies in Metrics keep counting past it.
constexpr std::size_t kMaxRecorded = 64;
}  // namespace

void InvariantRegistry::Violate(const sim::RunInspect& in, const char* kind,
                                std::string what) {
  in.metrics->RecordInvariantViolation(kind);
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back(std::string(kind) + ": " + std::move(what));
  }
}

void InvariantRegistry::CheckLeader(const sim::RunInspect& in) {
  const sim::Metrics& m = *in.metrics;
  if (opt_.unique_leader && m.leader_declarations() > 1 &&
      !multiple_reported_) {
    multiple_reported_ = true;
    std::ostringstream os;
    os << m.leader_declarations() << " leader declarations (last leader id "
       << *m.leader_id() << ")";
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

void InvariantRegistry::CheckMonotone(sim::NodeId target,
                                      const sim::RunInspect& in,
                                      const sim::ProtocolObservables& obs) {
  auto same = [](const char* a, const char* b) {
    return a == b || std::strcmp(a, b) == 0;
  };
  auto& marks = nodes_[target].gauges;
  for (std::size_t i = 0; i < obs.monotone.size(); ++i) {
    const auto& [name, value] = obs.monotone[i];
    // Gauges keep their positions, so slot i almost always matches; a
    // node that reorders or renames its gauges falls back to a search.
    std::size_t slot = i;
    if (slot >= marks.size() || !same(marks[slot].first, name)) {
      slot = 0;
      while (slot < marks.size() && !same(marks[slot].first, name)) ++slot;
    }
    if (slot == marks.size()) {
      marks.emplace_back(name, value);
      continue;
    }
    std::int64_t& high = marks[slot].second;
    if (value < high) {
      std::ostringstream os;
      os << "node " << target << " gauge '" << name << "' fell from " << high
         << " to " << value;
      Violate(in, kInvMonotoneRegression, os.str());
    }
    high = std::max(high, value);
  }
}

void InvariantRegistry::SetClaim(sim::NodeId node,
                                 const sim::ProtocolObservables* obs) {
  const auto claim = obs != nullptr ? obs->lease : std::nullopt;
  NodeState& st = nodes_[node];
  if (st.claim.has_value() != claim.has_value()) {
    const auto pos =
        std::lower_bound(claimants_.begin(), claimants_.end(), node);
    if (claim.has_value()) {
      claimants_.insert(pos, node);
    } else {
      claimants_.erase(pos);
    }
  }
  st.claim = claim;
}

void InvariantRegistry::CheckLease(sim::NodeId target,
                                   const sim::RunInspect& in,
                                   const sim::ProtocolObservables* obs) {
  // Re-publish only the target's claim (dead nodes claim nothing), then
  // scan the claimant set for two unexpired deadlines.
  SetClaim(target, obs);
  sim::NodeId holder = 0;
  bool found = false;
  for (const sim::NodeId node : claimants_) {
    const auto& claim = *nodes_[node].claim;
    if (claim.deadline < in.now) continue;  // expired: not a holder
    if (!found) {
      holder = node;
      found = true;
      continue;
    }
    if (lease_pairs_reported_.insert({holder, node}).second) {
      std::ostringstream os;
      os << "nodes " << holder << " and " << node
         << " both hold unexpired leases at t=" << in.now.ticks()
         << " (terms " << nodes_[holder].claim->term << " and "
         << claim.term << ")";
      Violate(in, kInvLeaseOverlap, os.str());
    }
  }
}

void InvariantRegistry::CheckConservation(const sim::RunInspect& in) {
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

void InvariantRegistry::AfterEvent(sim::NodeId target,
                                   const sim::RunInspect& in) {
  if (!expected_leader_known_) {
    // First event: size the per-node state, and snapshot the expected
    // leader before any mid-run crash can remove the max-id node; the
    // max-id check is only meaningful for configs where it stays live.
    // Initially failed nodes never run, so only live ones compete.
    expected_leader_known_ = true;
    nodes_.resize(in.n);
    claimants_.reserve(in.n);
    expected_leader_ = std::numeric_limits<sim::Id>::min();
    for (sim::NodeId i = 0; i < in.n; ++i) {
      if (!(*in.failed)[i]) {
        expected_leader_ = std::max(expected_leader_, (*in.ids)[i]);
      }
    }
  }
  NodeState& st = nodes_[target];
  const bool alive = !(*in.failed)[target];
  if (alive && st.was_failed) {
    // Failed→alive edge: a rejoin rebuilt the node from the factory, so
    // its gauges legally restart from zero and any cached claim belongs
    // to the previous incarnation.
    st.gauges.clear();
    SetClaim(target, nullptr);
  }
  st.was_failed = !alive;
  CheckLeader(in);
  if (alive) {
    const sim::ProtocolObservables& obs = in.Observed(target);
    CheckMonotone(target, in, obs);
    CheckLease(target, in, &obs);
  } else {
    CheckLease(target, in, nullptr);
  }
  CheckConservation(in);
}

void InvariantRegistry::AtQuiescence(const sim::RunInspect& in) {
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

std::string InvariantRegistry::Summary() const {
  std::string out;
  for (const auto& v : violations_) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out;
}

}  // namespace celect::analysis
