#include "celect/sim/sync_runtime.h"

#include "celect/util/check.h"

namespace celect::sim {

class SyncRuntime::ContextImpl : public SyncContext {
 public:
  ContextImpl(SyncRuntime& rt, NodeId node) : rt_(rt), node_(node) {}

  NodeId address() const override { return node_; }
  Id id() const override { return rt_.ids_[node_]; }
  std::uint32_t n() const override { return rt_.n_; }
  std::uint32_t round() const override { return rt_.round_; }

  void Send(Port port, wire::Packet p) override {
    CELECT_CHECK(port >= 1 && port <= rt_.n_ - 1);
    NodeId to = rt_.mapper_->Resolve(node_, port);
    Port arrival = rt_.mapper_->PortToward(to, node_);
    rt_.next_inboxes_[to].emplace_back(arrival, std::move(p));
    ++rt_.messages_;
  }

  void DeclareLeader() override {
    if (rt_.leader_declarations_ == 0) rt_.leader_id_ = id();
    ++rt_.leader_declarations_;
  }

 private:
  SyncRuntime& rt_;
  NodeId node_;
};

SyncRuntime::SyncRuntime(std::uint32_t n, std::vector<Id> identities,
                         std::unique_ptr<PortMapper> mapper,
                         const SyncProcessFactory& factory,
                         std::uint32_t max_rounds)
    : n_(n),
      ids_(std::move(identities)),
      mapper_(std::move(mapper)),
      max_rounds_(max_rounds),
      inboxes_(n),
      next_inboxes_(n) {
  CELECT_CHECK(n >= 2);
  CELECT_CHECK(ids_.size() == n);
  CELECT_CHECK(mapper_ && mapper_->n() == n);
  processes_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    processes_.push_back(factory(SyncProcessInit{i, ids_[i], n}));
    CELECT_CHECK(processes_.back() != nullptr);
  }
}

SyncRunResult SyncRuntime::Run() {
  for (round_ = 0;; ++round_) {
    CELECT_CHECK(round_ < max_rounds_) << "synchronous run did not quiesce";
    for (NodeId i = 0; i < n_; ++i) {
      ContextImpl ctx(*this, i);
      processes_[i]->OnRound(ctx, inboxes_[i]);
    }
    bool any = false;
    for (auto& box : next_inboxes_) {
      if (!box.empty()) {
        any = true;
        break;
      }
    }
    std::swap(inboxes_, next_inboxes_);
    for (auto& box : next_inboxes_) box.clear();
    if (!any) break;
  }
  SyncRunResult r;
  r.leader_id = leader_id_;
  r.leader_declarations = leader_declarations_;
  r.rounds = round_ + 1;
  r.total_messages = messages_;
  return r;
}

}  // namespace celect::sim
