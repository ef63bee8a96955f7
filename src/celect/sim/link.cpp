#include "celect/sim/link.h"

#include <algorithm>

#include "celect/util/check.h"

namespace celect::sim {

namespace {

// splitmix64 finalizer — full-avalanche mix for the sparse probe start.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void LinkTable::EnableFaults(const LinkFaultProfile& profile,
                             std::uint64_t seed) {
  faults_ = profile;
  faults_enabled_ = profile.Any();
  fault_rng_ = Rng(seed);
}

LinkTable::State& LinkTable::Obtain(NodeId from, NodeId to) {
  const std::uint64_t key = Key(from, to);
  if (dense()) {
    if (dense_.empty()) {
      dense_.resize(static_cast<std::size_t>(n_) * n_);
    }
    return dense_[key];
  }
  if (sparse_.empty()) sparse_.resize(1024);
  // Grow at 3/4 load so linear probes stay short.
  if (sparse_used_ * 4 >= sparse_.size() * 3) GrowSparse();
  const std::size_t mask = sparse_.size() - 1;
  std::size_t i = static_cast<std::size_t>(Mix(key)) & mask;
  for (;;) {
    FlatEntry& e = sparse_[i];
    if (e.key == key) return e.s;
    if (e.key == 0) {
      e.key = key;
      ++sparse_used_;
      return e.s;
    }
    i = (i + 1) & mask;
  }
}

const LinkTable::State* LinkTable::Find(NodeId from, NodeId to) const {
  const std::uint64_t key = Key(from, to);
  if (dense()) {
    return dense_.empty() ? nullptr : &dense_[key];
  }
  if (sparse_.empty()) return nullptr;
  const std::size_t mask = sparse_.size() - 1;
  std::size_t i = static_cast<std::size_t>(Mix(key)) & mask;
  for (;;) {
    const FlatEntry& e = sparse_[i];
    if (e.key == key) return &e.s;
    if (e.key == 0) return nullptr;
    i = (i + 1) & mask;
  }
}

void LinkTable::GrowSparse() {
  std::vector<FlatEntry> old;
  old.swap(sparse_);
  sparse_.resize(old.size() * 2);
  const std::size_t mask = sparse_.size() - 1;
  for (const FlatEntry& e : old) {
    if (e.key == 0) continue;
    std::size_t i = static_cast<std::size_t>(Mix(e.key)) & mask;
    while (sparse_[i].key != 0) i = (i + 1) & mask;
    sparse_[i] = e;
  }
}

Time LinkTable::AdmitOrdered(State& s, Time send_time,
                             const DelayDecision& d) {
  Time arrival = send_time + d.transit;
  if (s.sent > 0) {
    arrival = std::max(arrival, s.last_arrival + d.spacing);
  }
  // FIFO: never earlier than the previous arrival.
  arrival = std::max(arrival, s.last_arrival);
  s.last_arrival = arrival;
  ++s.sent;
  ++s.inflight;
  max_load_ = std::max<std::uint64_t>(max_load_, s.sent);
  max_inflight_ = std::max<std::uint64_t>(max_inflight_, s.inflight);
  return arrival;
}

LinkTable::LinkRef LinkTable::Touch(NodeId from, NodeId to) {
  CELECT_DCHECK(from < n_ && to < n_ && from != to);
  LinkRef r;
  r.p = &Obtain(from, to);
  return r;
}

Admission LinkTable::AdmitWithFaults(const LinkRef& l, NodeId from, NodeId to,
                                     Time send_time, const DelayDecision& d) {
  CELECT_DCHECK(from < n_ && to < n_ && from != to);
  CELECT_CHECK(d.transit > Time::Zero()) << "transit delay must be positive";
  CELECT_CHECK(d.transit <= kUnit) << "transit delay exceeds one unit";
  CELECT_CHECK(d.spacing >= Time::Zero() && d.spacing <= kUnit)
      << "spacing outside [0, 1]";
  State& s = *static_cast<State*>(l.p);
  Admission adm;
  if (!faults_enabled_) {
    adm.arrival = AdmitOrdered(s, send_time, d);
    return adm;
  }

  // Fixed draw order (loss, reorder, duplicate) keeps runs reproducible.
  if (faults_.loss > 0.0 && fault_rng_.NextDouble() < faults_.loss) {
    // The message was sent and vanished in transit: it counts against the
    // link's load but leaves the FIFO backlog and in-flight set alone.
    adm.lost = true;
    ++s.sent;
    max_load_ = std::max<std::uint64_t>(max_load_, s.sent);
    return adm;
  }
  bool reorder =
      faults_.reorder > 0.0 && fault_rng_.NextDouble() < faults_.reorder;
  if (reorder && s.inflight > 0) {
    // Overtake the backlog: arrive on raw transit time. last_arrival is
    // not moved backwards, so later ordered messages still respect the
    // FIFO baseline.
    adm.reordered = true;
    adm.arrival = send_time + d.transit;
    s.last_arrival = std::max(s.last_arrival, adm.arrival);
    ++s.sent;
    ++s.inflight;
    max_load_ = std::max<std::uint64_t>(max_load_, s.sent);
    max_inflight_ = std::max<std::uint64_t>(max_inflight_, s.inflight);
  } else {
    adm.arrival = AdmitOrdered(s, send_time, d);
  }
  if (faults_.duplicate > 0.0 &&
      fault_rng_.NextDouble() < faults_.duplicate) {
    // The duplicate is one more FIFO-ordered message on the link.
    adm.duplicate_arrival = AdmitOrdered(s, send_time, d);
  }
  return adm;
}

void LinkTable::NotifyDelivered(NodeId from, NodeId to) {
  State* s = const_cast<State*>(Find(from, to));
  CELECT_CHECK(s != nullptr && s->inflight > 0)
      << "delivery on a link with nothing in flight";
  --s->inflight;
}

}  // namespace celect::sim
