#include "celect/proto/nosod/lease_engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "celect/proto/nosod/fault_tolerant.h"
#include "celect/util/check.h"

namespace celect::proto::nosod {
namespace {

using sim::Context;
using sim::LeaseEvent;
using sim::Port;
using sim::Time;
using sim::TimerId;

// A candidate re-runs a failed acquisition round this many times before
// abandoning the term to its watchdog.
constexpr std::uint32_t kMaxGrantRetries = 3;

// Outstanding rounds kept while their acks are in flight; older rounds
// beyond this are abandoned (their deadlines are the stalest anyway).
constexpr std::size_t kMaxOutstandingRounds = 8;

// Deterministic per-identity stagger in {0, 1, 2, 3}; identities may be
// negative, so fold into the non-negative range first.
int Stagger(sim::Id id) { return static_cast<int>(((id % 4) + 4) % 4); }

// celect-lint: allow(proto-phase-spans) the inner engine's spans reach the runtime through TermContext
class LeaseProcess : public sim::Process {
 public:
  LeaseProcess(LeaseParams params, sim::ProcessFactory inner_factory,
               const sim::ProcessInit& init)
      : params_(params), inner_factory_(std::move(inner_factory)),
        init_(init) {
    CELECT_CHECK(params_.renew_interval > Time::Zero() &&
                 params_.renew_interval < params_.lease_duration)
        << "renew_interval must be in (0, lease_duration)";
    CELECT_CHECK(params_.election_timeout > Time::Zero());
  }

  void OnWakeup(Context& ctx) override {
    Engage(ctx);
    ScheduleNominate(ctx);
  }

  void OnRejoin(Context& ctx) override {
    // Quarantine: this incarnation has no memory of promises its
    // previous life made, but every such promise expires within one
    // lease_duration of the crash (deadlines are send_time + duration,
    // and the crash post-dates every ack). Refusing to ack until then
    // restores the quorum-intersection safety argument.
    grey_until_ = ctx.now() + params_.lease_duration;
    Engage(ctx);
  }

  void OnMessage(Context& ctx, Port from_port,
                 const wire::Packet& p) override {
    Engage(ctx);
    if (p.type >= kLeaseWrapBase) {
      OnWrapped(ctx, from_port, p);
      return;
    }
    switch (p.type) {
      case kLeaseGrant:
      case kLeaseRenew:
        OnGrantOrRenew(ctx, from_port, p);
        break;
      case kLeaseAck:
        OnAck(ctx, from_port, p.field(0), p.field(1));
        break;
      case kLeaseReject:
        OnReject(from_port, p.field(0), p.field(1));
        break;
      case kLeaseRelease:
        OnRelease(ctx, p.field(0));
        break;
      default:
        break;  // unknown control type: ignore
    }
  }

  void OnTimer(Context& ctx, TimerId timer) override {
    if (timer == watchdog_timer_) {
      watchdog_timer_ = sim::kInvalidTimer;
      HandleWatchdog(ctx);
    } else if (timer == renew_timer_) {
      renew_timer_ = sim::kInvalidTimer;
      HandleRenew(ctx);
    } else if (timer == expiry_timer_) {
      expiry_timer_ = sim::kInvalidTimer;
      HandleExpiry(ctx);
    } else if (timer == retry_timer_) {
      retry_timer_ = sim::kInvalidTimer;
      HandleRetry(ctx);
    } else if (timer == nominate_timer_) {
      nominate_timer_ = sim::kInvalidTimer;
      HandleNominate(ctx);
    } else if (ForgetInnerTimer(timer)) {
      CELECT_CHECK(inner_ != nullptr);
      TermContext tctx(*this, ctx);
      inner_->OnTimer(tctx, timer);
    }
    // else: a timer of a discarded inner instance — stale, ignore.
  }

  void OnPeerSuspected(Context& ctx, Port port) override {
    // The lease layer's own liveness comes from its watchdog/renew
    // timers, which fire regardless of any one peer — a crash hint
    // changes nothing there. The inner election, though, may be
    // waiting on the suspected node; forward so its recovery path can
    // act early. The wrapped context keeps the inner engine's sends
    // term-tagged, same as every other forwarded callback.
    if (inner_ == nullptr) return;
    TermContext tctx(*this, ctx);
    inner_->OnPeerSuspected(tctx, port);
  }

  sim::ProtocolObservables Observe() const override {
    sim::ProtocolObservables o;
    o.monotone.emplace_back("lease.term", term_);
    if (role_ == Role::kHolding) {
      o.lease = sim::ProtocolObservables::LeaseClaim{lease_term_, deadline_};
    }
    return o;
  }

  std::string DescribeState() const override {
    std::ostringstream os;
    os << "term=" << term_ << " role="
       << (role_ == Role::kHolding
               ? "holding"
               : role_ == Role::kAcquiring ? "acquiring" : "follower")
       << " promised=(" << promised_term_ << ","
       << promised_until_.ToString() << ")";
    if (role_ == Role::kHolding) {
      os << " deadline=" << deadline_.ToString();
    }
    return os.str();
  }

 private:
  enum class Role { kFollower, kAcquiring, kHolding };

  // Wraps the real context for the inner election: every send gets the
  // current term prepended and its type lifted past kLeaseWrapBase, the
  // inner's timers are tracked so a term change can cancel them, and
  // DeclareLeader becomes "start acquiring the lease" instead of a
  // leadership announcement.
  class TermContext : public sim::ForwardingContext {
   public:
    TermContext(LeaseProcess& owner, Context& real)
        : ForwardingContext(real), owner_(owner) {}

    void Send(Port port, wire::Packet p) override {
      real().Send(port, owner_.Wrap(std::move(p)));
    }
    std::optional<Port> SendFresh(wire::Packet p) override {
      return real().SendFresh(owner_.Wrap(std::move(p)));
    }
    void SendAll(wire::Packet p) override {
      real().SendAll(owner_.Wrap(std::move(p)));
    }
    TimerId SetTimer(Time delay) override {
      TimerId t = real().SetTimer(delay);
      auto& timers = owner_.inner_timers_;
      timers.insert(std::upper_bound(timers.begin(), timers.end(), t), t);
      return t;
    }
    void CancelTimer(TimerId timer) override {
      owner_.ForgetInnerTimer(timer);
      real().CancelTimer(timer);
    }
    void DeclareLeader() override { owner_.OnInnerElected(real()); }

   private:
    LeaseProcess& owner_;
  };

  wire::Packet Wrap(wire::Packet p) {
    wire::Packet w;
    w.type = static_cast<std::uint16_t>(kLeaseWrapBase + p.type);
    w.fields.push_back(term_);
    w.fields.insert(w.fields.end(), p.fields.begin(), p.fields.end());
    return w;
  }

  std::uint32_t Quorum() const { return init_.n / 2 + 1; }

  bool BeforeHorizon(const Context& ctx) const {
    return ctx.now() < params_.horizon;
  }

  bool HasValidLease(Time now) const {
    return known_deadline_ != Time::Zero() && known_deadline_ >= now;
  }

  bool CanPromise(std::int64_t term, sim::Id holder, Time now) const {
    if (term == promised_term_) {
      // Same term: only the holder already promised to may extend. The
      // identity check keeps a duplicate same-term winner (conceivable
      // only if churn corrupts an inner election) from double-leasing.
      return holder == promised_holder_;
    }
    return term > promised_term_ && now > promised_until_;
  }

  Time WatchdogPeriod(const Context& ctx) const {
    return Time::FromTicks(params_.election_timeout.ticks() *
                           (4 + Stagger(ctx.id())) / 4);
  }

  void Engage(Context& ctx) {
    if (engaged_) return;
    engaged_ = true;
    ArmWatchdog(ctx);
  }

  void ArmWatchdog(Context& ctx) {
    if (!BeforeHorizon(ctx) || watchdog_timer_ != sim::kInvalidTimer) return;
    watchdog_timer_ = ctx.SetTimer(WatchdogPeriod(ctx));
  }

  void ScheduleNominate(Context& ctx) {
    if (!BeforeHorizon(ctx) || nominate_timer_ != sim::kInvalidTimer) return;
    if (role_ != Role::kFollower || ctx.now() < grey_until_) return;
    // Small identity-staggered fuse so the whole network does not
    // nominate in lockstep on every release/startup.
    nominate_timer_ = ctx.SetTimer(Time::FromTicks(
        params_.election_timeout.ticks() / 8 * (1 + Stagger(ctx.id()))));
  }

  // Minimum grace an in-flight election gets before any node preempts
  // it with a higher term. The inner FT engine legitimately goes quiet
  // for whole recovery/revival periods mid-election, so a short "no
  // traffic lately" test alone misreads recovery gaps as death and
  // livelocks the service on term bumps. Instead a term is preempted
  // only once it has outlived this many watchdog periods without a
  // grant AND the line has also gone quiet — fresh traffic extends a
  // stalled term's life, quiet alone never shortens a young one's.
  static constexpr std::int64_t kTermPatiencePeriods = 4;

  bool TermStalled(const Context& ctx) const {
    return ctx.now() - term_started_ >=
           Time::FromTicks(WatchdogPeriod(ctx).ticks() * kTermPatiencePeriods);
  }

  // True while a term exists and still deserves deference: it is
  // either younger than the patience bound or actively chattering.
  // term_ == 0 means no election was ever started — never defer.
  bool ElectionDeservesGrace(const Context& ctx) const {
    return term_ > 0 &&
           (!TermStalled(ctx) ||
            ctx.now() - last_activity_ <
                Time::FromTicks(WatchdogPeriod(ctx).ticks() / 2));
  }

  void HandleNominate(Context& ctx) {
    if (!BeforeHorizon(ctx) || role_ != Role::kFollower) return;
    if (ctx.now() < grey_until_ || HasValidLease(ctx.now())) return;
    // An election already in flight gets to finish; concurrent
    // nominations that fire before any traffic lands all bump to the
    // *same* term and contend inside one inner election.
    if (ElectionDeservesGrace(ctx)) return;
    StartElection(ctx);
  }

  void HandleWatchdog(Context& ctx) {
    if (!BeforeHorizon(ctx)) return;  // service window over: quiesce
    ArmWatchdog(ctx);
    if (role_ == Role::kHolding) return;
    if (ctx.now() < grey_until_ || HasValidLease(ctx.now())) return;
    if (ElectionDeservesGrace(ctx)) return;
    StartElection(ctx);
  }

  void StartElection(Context& ctx) {
    ++term_;
    term_started_ = ctx.now();
    ResetInner(ctx);
    if (role_ == Role::kAcquiring) role_ = Role::kFollower;
    last_activity_ = ctx.now();
    EnsureInner();
    TermContext tctx(*this, ctx);
    inner_->OnWakeup(tctx);
  }

  void AdoptTerm(Context& ctx, std::int64_t term) {
    if (term <= term_) return;
    term_ = term;
    term_started_ = ctx.now();
    ResetInner(ctx);
    // A holder keeps its (older-term) lease through adoption: promises
    // block any new grant until that lease's deadline anyway.
    if (role_ == Role::kAcquiring) role_ = Role::kFollower;
  }

  void EnsureInner() {
    if (!inner_) inner_ = inner_factory_(init_);
  }

  // Drops `timer` from inner_timers_; false if it was not there.
  bool ForgetInnerTimer(TimerId timer) {
    const auto it =
        std::lower_bound(inner_timers_.begin(), inner_timers_.end(), timer);
    if (it == inner_timers_.end() || *it != timer) return false;
    inner_timers_.erase(it);
    return true;
  }

  void ResetInner(Context& ctx) {
    for (TimerId t : inner_timers_) ctx.CancelTimer(t);
    inner_timers_.clear();
    inner_.reset();
  }

  // --- the wrapped election decided: acquire the lease ----------------

  void OnInnerElected(Context& ctx) {
    if (role_ != Role::kFollower || !BeforeHorizon(ctx)) return;
    if (!CanPromise(term_, ctx.id(), ctx.now())) return;  // a lease blocks us
    lease_term_ = term_;
    role_ = Role::kAcquiring;
    round_ = 0;
    rounds_.clear();
    grant_retries_ = 0;
    StartRound(ctx, kLeaseGrant);
    ArmRetry(ctx);
  }

  void StartRound(Context& ctx, std::uint16_t type) {
    ++round_;
    const Time deadline = ctx.now() + params_.lease_duration;
    // Rounds stay outstanding until superseded by a completed one: the
    // round trip can outlast the renew cadence, so a quorum assembled
    // from late acks must still count (each ack promises that round's
    // deadline, so granting on it is safe whenever it arrives).
    rounds_.emplace(round_, PendingRound{deadline, {}});
    if (rounds_.size() > kMaxOutstandingRounds) {
      rounds_.erase(rounds_.begin());
    }
    rejects_.clear();
    // The holder votes for itself: promise before asking others.
    promised_term_ = lease_term_;
    promised_holder_ = ctx.id();
    promised_until_ = std::max(promised_until_, deadline);
    ctx.SendAll(
        wire::Packet{type, {lease_term_, round_, ctx.id(), deadline.ticks()}});
  }

  void ArmRetry(Context& ctx) {
    if (!BeforeHorizon(ctx) || retry_timer_ != sim::kInvalidTimer) return;
    retry_timer_ = ctx.SetTimer(params_.renew_interval);
  }

  void HandleRetry(Context& ctx) {
    if (role_ != Role::kAcquiring || !BeforeHorizon(ctx)) return;
    if (++grant_retries_ > kMaxGrantRetries) {
      role_ = Role::kFollower;  // abandon; the watchdog re-elects
      rounds_.clear();
      return;
    }
    StartRound(ctx, kLeaseGrant);
    ArmRetry(ctx);
  }

  void HandleRenew(Context& ctx) {
    if (role_ != Role::kHolding) return;
    if (!BeforeHorizon(ctx)) return;  // stop renewing: let the run drain
    if (params_.max_renewals > 0 && renewals_ >= params_.max_renewals) {
      StepDown(ctx);
      return;
    }
    ++renewals_;
    StartRound(ctx, kLeaseRenew);
    ArmRenew(ctx);
  }

  void ArmRenew(Context& ctx) {
    if (!BeforeHorizon(ctx) || renew_timer_ != sim::kInvalidTimer) return;
    renew_timer_ = ctx.SetTimer(params_.renew_interval);
  }

  void ArmExpiry(Context& ctx) {
    if (expiry_timer_ != sim::kInvalidTimer) return;
    // Fires one tick past the deadline; self-terminates (no horizon
    // gate needed: it re-arms only while renewals keep extending the
    // deadline, and renewals stop at the horizon). Under the explorer's
    // free event reordering, `now` may already sit past the deadline
    // when the quorum completes — clamp so the timer fires at once.
    expiry_timer_ = ctx.SetTimer(
        std::max(deadline_ - ctx.now() + Time::Tick(), Time::Tick()));
  }

  void HandleExpiry(Context& ctx) {
    if (role_ != Role::kHolding) return;
    if (deadline_ >= ctx.now()) {  // renewed meanwhile
      ArmExpiry(ctx);
      return;
    }
    role_ = Role::kFollower;
    rounds_.clear();
    ctx.RecordLease(LeaseEvent::kExpired);
  }

  void StepDown(Context& ctx) {
    role_ = Role::kFollower;
    rounds_.clear();
    ctx.RecordLease(LeaseEvent::kRevoked);
    deadline_ = Time::Zero();
    known_deadline_ = std::min(known_deadline_, ctx.now());
    // Releasing own promise is safe: the holder stopped claiming above,
    // so no valid lease for this term exists to protect.
    if (promised_term_ == lease_term_) {
      promised_until_ = std::min(promised_until_, ctx.now());
    }
    ctx.SendAll(wire::Packet{kLeaseRelease, {lease_term_}});
    ScheduleNominate(ctx);
  }

  // --- follower side --------------------------------------------------

  void OnGrantOrRenew(Context& ctx, Port from_port, const wire::Packet& p) {
    const std::int64_t term = p.field(0);
    const std::int64_t round = p.field(1);
    const sim::Id holder = p.field(2);
    const Time deadline = Time::FromTicks(p.field(3));
    AdoptTerm(ctx, term);  // that election is over; stop contesting it
    if (ctx.now() < grey_until_) return;  // quarantine: no votes
    if (!CanPromise(term, holder, ctx.now())) {
      ctx.Send(from_port, wire::Packet{kLeaseReject, {term, round}});
      return;
    }
    promised_term_ = term;
    promised_holder_ = holder;
    promised_until_ = std::max(promised_until_, deadline);
    known_deadline_ = std::max(known_deadline_, deadline);
    ctx.Send(from_port, wire::Packet{kLeaseAck, {term, round}});
  }

  void OnAck(Context& ctx, Port from_port, std::int64_t term,
             std::int64_t round) {
    if (role_ == Role::kFollower || term != lease_term_) return;
    const auto it = rounds_.find(round);
    if (it == rounds_.end()) return;  // superseded or abandoned round
    it->second.acks.insert(from_port);
    if (1 + it->second.acks.size() < Quorum()) return;
    const Time deadline = it->second.deadline;
    // This round and everything older is settled.
    rounds_.erase(rounds_.begin(), std::next(it));
    if (role_ == Role::kAcquiring) {
      role_ = Role::kHolding;
      deadline_ = deadline;
      known_deadline_ = std::max(known_deadline_, deadline_);
      renewals_ = 0;
      ctx.RecordLease(LeaseEvent::kGranted);
      ctx.DeclareLeader();
      ArmRenew(ctx);
      ArmExpiry(ctx);
    } else if (deadline > deadline_) {
      deadline_ = deadline;
      known_deadline_ = std::max(known_deadline_, deadline_);
      ctx.RecordLease(LeaseEvent::kRenewed);
    }
  }

  void OnReject(Port from_port, std::int64_t term, std::int64_t round) {
    if (role_ != Role::kAcquiring) return;
    if (term != lease_term_ || round != round_) return;  // latest round only
    rejects_.insert(from_port);
    // Abandon once a quorum is unreachable even if everyone else acks.
    if (1 + (init_.n - 1 - rejects_.size()) < Quorum()) {
      role_ = Role::kFollower;
      rounds_.clear();
    }
  }

  void OnRelease(Context& ctx, std::int64_t term) {
    if (promised_term_ == term) {
      promised_until_ = std::min(promised_until_, ctx.now());
    }
    known_deadline_ = std::min(known_deadline_, ctx.now());
    ScheduleNominate(ctx);
  }

  void OnWrapped(Context& ctx, Port from_port, const wire::Packet& p) {
    const std::int64_t term = p.field(0);
    last_activity_ = ctx.now();
    if (term < term_) return;  // a superseded election's traffic
    AdoptTerm(ctx, term);
    EnsureInner();
    wire::Packet stripped;
    stripped.type = static_cast<std::uint16_t>(p.type - kLeaseWrapBase);
    stripped.fields.assign(p.fields.begin() + 1, p.fields.end());
    TermContext tctx(*this, ctx);
    inner_->OnMessage(tctx, from_port, stripped);
  }

  const LeaseParams params_;
  const sim::ProcessFactory inner_factory_;
  const sim::ProcessInit init_;

  // Election state.
  std::int64_t term_ = 0;
  // When this node started (or adopted) term_ — the anchor for the
  // stalled-election patience bound.
  Time term_started_ = Time::Zero();
  std::unique_ptr<sim::Process> inner_;  // instance for term_ (lazy)
  // The inner instance's live timers, ascending. Ids are issued in
  // increasing order, so an insert is an append in practice.
  std::vector<TimerId> inner_timers_;
  bool engaged_ = false;

  // Voter state.
  std::int64_t promised_term_ = 0;
  sim::Id promised_holder_ = 0;
  Time promised_until_ = Time::Zero();
  Time grey_until_ = Time::Zero();

  // Shared knowledge.
  Time known_deadline_ = Time::Zero();  // latest deadline this node acked
  // Last *election* (wrapped inner) traffic heard. Deliberately not
  // bumped by grant/renew traffic: a healthy lease already suppresses
  // watchdogs and fuses via known_deadline_, and after a release the
  // fuse must not be muzzled by the dead reign's renewals.
  Time last_activity_ = Time::Zero();

  // Holder state (meaningful when role_ != kFollower).
  Role role_ = Role::kFollower;
  std::int64_t lease_term_ = 0;
  std::int64_t round_ = 0;
  Time deadline_ = Time::Zero();
  // Outstanding grant/renew rounds awaiting a quorum, keyed by round.
  struct PendingRound {
    Time deadline;
    std::set<Port> acks;
  };
  std::map<std::int64_t, PendingRound> rounds_;
  std::set<Port> rejects_;
  std::uint32_t renewals_ = 0;
  std::uint32_t grant_retries_ = 0;

  // Wrapper-owned timers.
  TimerId watchdog_timer_ = sim::kInvalidTimer;
  TimerId renew_timer_ = sim::kInvalidTimer;
  TimerId expiry_timer_ = sim::kInvalidTimer;
  TimerId retry_timer_ = sim::kInvalidTimer;
  TimerId nominate_timer_ = sim::kInvalidTimer;
};

}  // namespace

sim::ProcessFactory MakeLeaseEngine(LeaseParams params) {
  return [params](const sim::ProcessInit& init) {
    sim::ProcessFactory inner = MakeFaultTolerant(params.f, params.k);
    return std::make_unique<LeaseProcess>(params, std::move(inner), init);
  };
}

}  // namespace celect::proto::nosod
