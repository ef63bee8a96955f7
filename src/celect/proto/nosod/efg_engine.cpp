#include "celect/proto/nosod/efg_engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "celect/proto/common.h"
#include "celect/util/check.h"

namespace celect::proto::nosod {

namespace {

using sim::Context;
using sim::Id;
using sim::Port;
using wire::Packet;

struct Contender {
  Port port;
  std::int64_t level;
  Id id;
  Credential Cred() const { return Credential{level, id}; }
};

// FT recovery timing (f > 0 only). The period must exceed a capture
// round trip (2 units) with generous congestion slack; every retry and
// probe loop is capped so even a run past its fault budget quiesces.
constexpr sim::Time kRecoveryPeriod = sim::Time::FromUnits(8);
// Revival is the slow, last-resort loop — twice the recovery period so
// the fast loops (watchdogs, retransmits) always get to act first.
constexpr sim::Time kRevivalPeriod = sim::Time::FromUnits(16);
constexpr std::uint32_t kMaxCaptureRetries = 4;
constexpr std::uint32_t kMaxBroadcastRetries = 8;
constexpr std::uint32_t kMaxFpRetries = 8;
constexpr std::uint32_t kMaxLockProbes = 64;
constexpr std::uint32_t kMaxWatchProbes = 32;
constexpr std::uint32_t kMaxRevProbes = 64;
constexpr std::uint32_t kMaxRevivals = 8;
// A lock guards safety: condemning its owner needs more silence than the
// liveness probes do, so a burst of lost pings cannot unlock a quorum
// that a live broadcaster is still assembling.
constexpr std::uint32_t kLockSilenceLimit = 3;
// Ping tags: which probe loop a pong answers.
constexpr std::int64_t kTagWatch = 1;  // captured node probing its owner
constexpr std::int64_t kTagLock = 2;   // locked node probing its lock owner
constexpr std::int64_t kTagSuperior = 3;  // dead node probing its killer
// kFOwnerPong status values (second field).
constexpr std::int64_t kPongPursuing = 0;  // alive and still in the race
constexpr std::int64_t kPongLeader = 1;    // election is decided
constexpr std::int64_t kPongStanding = 2;  // alive but killed/captured

class EfgNode : public ElectionProcess {
 public:
  EfgNode(const sim::ProcessInit& init, const EfgParams& params)
      : id_(init.id), n_(init.n), params_(params), maxid_(init.id) {
    CELECT_CHECK(params.k >= 1);
    walk_target_ = params.broadcast
                       ? static_cast<std::int64_t>((n_ + params.k - 1) /
                                                   params.k)  // ⌈N/k⌉
                       : static_cast<std::int64_t>(n_) - 1;
    window_ = params.f + 1;
    elect_quorum_ = n_ - 1 - params.f;
    CELECT_CHECK(elect_quorum_ >= 1)
        << "failure budget too large for N=" << n_;
    CELECT_CHECK(!(params.doubling_walk && params.f > 0))
        << "the doubling walk and the failure window are exclusive";
  }

 protected:
  void OnSpontaneousWakeup(Context& ctx) override {
    if (params_.g_phases) {
      StartFirstPhase(ctx);
    } else {
      role_ = Role::kWalking;
      ctx.BeginPhase(obs::PhaseId::kCapture1);
      FillWindow(ctx);
    }
  }

  void OnPacket(Context& ctx, Port port, const Packet& p,
                bool /*first_contact*/) override {
    switch (p.type) {
      case kFCapture:
        HandleCapture(ctx, port, Contender{port, p.field(1), p.field(0)});
        break;
      case kFAccept:
        HandleCaptureAccept(ctx, port);
        break;
      case kFReject:
        HandleCaptureReject(ctx, port,
                            Credential{p.field(1), p.field(0)});
        break;
      case kFFwd:
        HandleFwd(ctx, port, p.field(0), p.field(1));
        break;
      case kFFwdAccept:
        HandleFwdReply(ctx, /*owner_killed=*/true, Credential{});
        break;
      case kFFwdReject:
        HandleFwdReply(ctx, /*owner_killed=*/false,
                       Credential{p.field(1), p.field(0)});
        break;
      case kFElect:
        HandleElect(ctx, port, p.field(0), p.field(1));
        break;
      case kFElectAccept:
        HandleElectAccept(ctx, port);
        break;
      case kFElectRejectStronger:
        if (role_ == Role::kBroadcasting) {
          sup_port_ = port;
          Die(ctx);
        }
        break;
      case kFElectRejectLocked:
        break;  // not fatal: a release/retry hint may come later
      case kFConfirm:
        HandleConfirm(ctx, port, p.field(0));
        break;
      case kFConfirmAck:
        HandleConfirmAck(ctx, port);
        break;
      case kFConfirmReject:
        break;  // the acked quorum decides; rejects carry no information
      case kFRelease:
        HandleRelease(ctx, port, /*final=*/p.field(0) != 0);
        break;
      case kFRetryHint:
        if (role_ == Role::kBroadcasting) {
          ctx.Send(port, Packet{kFElect, {id_, level_}});
        }
        break;
      case kGFirstPhase:
        HandleFirstPhase(ctx, port);
        break;
      case kGPAccept:
        HandleFpResponse(ctx, port, FpResponse::kAccept);
        break;
      case kGProceed:
        HandleFpResponse(ctx, port, FpResponse::kProceed);
        break;
      case kGFinish:
        HandleFpResponse(ctx, port, FpResponse::kFinish);
        break;
      case kGCheck:
        ctx.Send(port, Packet{kGCheckReply, {fp_done_ ? 1 : 0}});
        break;
      case kGCheckReply:
        HandleCheckReply(ctx, p.field(0) != 0);
        break;
      case kFOwnerPing:
        // Any live node answers; a crashed one cannot — that asymmetry is
        // the whole liveness detector. The reply also reports whether the
        // responder still pursues the election: a node that was killed or
        // captured answers kPongStanding, so its own victims do not wait
        // on a superior that will never finish (two dead nodes ponging
        // each other "alive" would otherwise be a stable stall).
        ctx.Send(port,
                 Packet{kFOwnerPong,
                        {p.field(0), role_ == Role::kLeader ? kPongLeader
                         : (role_ == Role::kDead || captured_)
                             ? kPongStanding
                             : kPongPursuing}});
        break;
      case kFOwnerPong:
        HandlePong(ctx, p.field(0), p.field(1));
        break;
      default:
        CELECT_CHECK(false) << "EFG engine: unknown message type "
                            << p.type;
    }
  }

 public:
  std::string DescribeState() const override {
    static const char* kRoleNames[] = {"passive",  "first-phase",
                                       "second-phase", "walking",
                                       "broadcasting", "leader", "dead"};
    std::string s = kRoleNames[static_cast<int>(role_)];
    s += " level=" + std::to_string(level_);
    s += " id=" + std::to_string(id_);
    if (captured_) s += " captured";
    s += " outstanding=" + std::to_string(outstanding_);
    s += " sp_pending=" + std::to_string(sp_pending_);
    s += " fp_responses=" + std::to_string(fp_responses_) + "/" +
         std::to_string(fp_threshold_);
    s += " pending=" + std::to_string(pending_.size());
    s += " maxid=" + std::to_string(maxid_);
    s += " elect_acks=" + std::to_string(elect_ports_.size());
    s += " confirm_acks=" + std::to_string(confirm_ports_.size());
    if (confirming_) s += " confirming";
    if (locked_) s += " locked-to=" + std::to_string(locked_id_);
    if (hint_port_ != sim::kInvalidPort) {
      s += " hint=" + std::to_string(hint_id_);
    }
    if (inflight_) s += " fwd-inflight";
    if (check_busy_) s += " check-busy";
    return s;
  }

  sim::ProtocolObservables Observe() const override {
    sim::ProtocolObservables obs;
    // level_ survives FT revival monotonically (a revived node re-enters
    // the race from its current level); captured_ and the role do not
    // (kDead/captured → kWalking), so those claims hold only at f = 0.
    obs.monotone = {{"level", level_},
                    {"maxid", maxid_},
                    {"reached_second", reached_second_ ? 1 : 0}};
    if (!Ft()) {
      obs.monotone.emplace_back("captured", captured_ ? 1 : 0);
      obs.terminated = role_ == Role::kLeader || !LiveCandidate();
    }
    return obs;
  }

 private:
  enum class Role {
    kPassive,      // never woke spontaneously (or barred)
    kFirstPhase,   // G: collecting permissions
    kSecondPhase,  // G: parallel capture burst to level k
    kWalking,      // Ɛ sequential capture
    kBroadcasting, // F/G: protocol D round
    kLeader,
    kDead,         // killed candidate
  };

  Credential Cred() const { return Credential{level_, id_}; }

  // Whether the FT recovery machinery is live. With f = 0 every hook
  // below is inert: no timer is armed, no pending-capture state is kept,
  // and the engine behaves bit-identically to the paper's protocols.
  bool Ft() const { return params_.f > 0; }

  void CancelIf(Context& ctx, sim::TimerId& timer) {
    if (timer == sim::kInvalidTimer) return;
    ctx.CancelTimer(timer);
    timer = sim::kInvalidTimer;
  }

  // A live authority contests forwarded/direct captures with its current
  // credential. Captured or dead nodes are not authorities.
  bool LiveCandidate() const {
    return !captured_ && (role_ == Role::kFirstPhase ||
                          role_ == Role::kSecondPhase ||
                          role_ == Role::kWalking ||
                          role_ == Role::kBroadcasting ||
                          role_ == Role::kLeader);
  }

  bool InSecondPhaseOrLater() const { return reached_second_; }

  // A candidate leaving the race. If it had started locking a confirm
  // quorum (FT), the locks must be released or rivals deadlock. Declared
  // leaders never die (and never release their quorum).
  // At most one protocol span is open at a time (plus a recovery span a
  // timer handler may have stacked on top); close whatever is.
  void ClosePhaseSpans(Context& ctx) {
    ctx.EndPhase(obs::PhaseId::kRecovery);
    ctx.EndPhase(obs::PhaseId::kBroadcast);
    ctx.EndPhase(obs::PhaseId::kCapture1);
    ctx.EndPhase(obs::PhaseId::kWakeup);
  }

  void Die(Context& ctx) {
    if (role_ == Role::kLeader) return;
    ClosePhaseSpans(ctx);
    if (role_ != Role::kPassive) role_ = Role::kDead;
    if (confirming_) {
      confirming_ = false;
      ctx.SendAll(Packet{kFRelease, {0}});
    }
    // Candidate-side recovery dies with the candidacy; the revival watch
    // takes over — if whoever outranked us crashes before the election
    // resolves, this node re-enters the race.
    if (Ft()) {
      pending_caps_.clear();
      CancelIf(ctx, cap_timer_);
      CancelIf(ctx, bc_timer_);
      CancelIf(ctx, fp_timer_);
      ArmRevivalWatch(ctx);
    }
  }

  void BecomeCaptured(Context& ctx, Port owner_port) {
    captured_ = true;
    owner_port_ = owner_port;
    Die(ctx);
  }

  // ---- Ɛ capture walk ------------------------------------------------

  std::optional<Port> NextWalkPort() {
    while (walk_cursor_ <= n_ - 1 && sent_ports_.count(walk_cursor_)) {
      ++walk_cursor_;
    }
    if (walk_cursor_ > n_ - 1) return std::nullopt;
    return walk_cursor_;
  }

  void SendCaptureOn(Context& ctx, Port port) {
    sent_ports_.insert(port);
    TrackCapture(ctx, port);
    ctx.Send(port, Packet{kFCapture, {id_, level_}});
  }

  void FillWindow(Context& ctx) {
    if (params_.doubling_walk) {
      StartWalkBatch(ctx);
      return;
    }
    // The window must stay at f+1 outstanding captures even close to the
    // target: at most f targets can be silently crashed, so a full
    // window always contains a live one and the walk cannot stall. A few
    // captures may overshoot the target; the broadcast fires once.
    while (outstanding_ < window_) {
      auto port = NextWalkPort();
      if (!port) break;  // every edge tried; rely on outstanding replies
      ++outstanding_;
      SendCaptureOn(ctx, *port);
    }
    if (outstanding_ == 0 && level_ >= walk_target_) StartBroadcast(ctx);
    if (Ft() && outstanding_ == 0 && pending_caps_.empty() &&
        role_ == Role::kWalking && level_ < walk_target_) {
      // Every edge was tried and the missing accepts died with crashed
      // or abandoned targets: the target is unreachable, so broadcast
      // with the true level instead of stalling (the N-1-f elect quorum
      // keeps a below-target broadcast safe; small N hits this whenever
      // a capture target crashes). Cannot happen fault-free: rejects
      // kill the walker and a fully-accepted walk reaches the target.
      StartBroadcast(ctx);
    }
  }

  // [Si92] doubling walk: fire a whole batch at the frozen level, raise
  // the level by the batch's accepts once every reply is in, double the
  // batch. Reaching ⌈N/k⌉ takes O(log N) rounds.
  void StartWalkBatch(Context& ctx) {
    std::int64_t want =
        std::min<std::int64_t>(next_batch_, walk_target_ - level_);
    batch_pending_ = 0;
    batch_accepts_ = 0;
    for (std::int64_t i = 0; i < want; ++i) {
      auto port = NextWalkPort();
      if (!port) break;
      ++batch_pending_;
      SendCaptureOn(ctx, *port);
    }
    if (batch_pending_ == 0 && level_ >= walk_target_) StartBroadcast(ctx);
  }

  void FinishWalkBatch(Context& ctx) {
    level_ += batch_accepts_;
    next_batch_ *= 2;
    if (level_ >= walk_target_) {
      WalkDone(ctx);
    } else {
      StartWalkBatch(ctx);
    }
  }

  void WalkDone(Context& ctx) {
    if (params_.broadcast) {
      StartBroadcast(ctx);
    } else {
      role_ = Role::kLeader;
      ctx.EndPhase(obs::PhaseId::kCapture1);
      ctx.DeclareLeader();
    }
  }

  void HandleCaptureAccept(Context& ctx, Port port) {
    // Settle the watchdog entry first: even a reply that arrives after
    // this candidate was captured or died must stop further retries.
    const bool was_pending = UntrackCapture(ctx, port);
    if (captured_ || role_ == Role::kDead) return;
    if (role_ == Role::kSecondPhase) {
      if (Ft() && !was_pending) return;  // watchdog already compensated
      ++sp_accepts_;
      CELECT_CHECK(sp_pending_ > 0);
      if (--sp_pending_ == 0) FinishSecondPhase(ctx);
      return;
    }
    if (role_ != Role::kWalking) return;
    if (params_.doubling_walk) {
      ++batch_accepts_;
      CELECT_CHECK(batch_pending_ > 0);
      if (--batch_pending_ == 0) FinishWalkBatch(ctx);
      return;
    }
    if (Ft() && !was_pending) return;  // watchdog already compensated
    CELECT_CHECK(outstanding_ > 0);
    --outstanding_;
    ++level_;
    if (level_ >= walk_target_) {
      WalkDone(ctx);
      return;
    }
    FillWindow(ctx);
  }

  void HandleCaptureReject(Context& ctx, Port port, Credential rejecter) {
    const bool was_pending = UntrackCapture(ctx, port);
    if (captured_) return;
    if (role_ != Role::kWalking && role_ != Role::kSecondPhase) return;
    if (Ft() && !was_pending) return;  // watchdog already compensated
    // With a capture window > 1 (FT), our level can have grown while the
    // rejected capture was in flight; a stale credential losing is not
    // fatal if our *current* one now wins — re-contest. Without this,
    // two top candidates can mutually kill each other with crossing
    // stale captures and leave the network leaderless. Sequential walks
    // (window 1) freeze the level while waiting, so the retry never
    // fires there and the paper's behaviour is unchanged.
    if (role_ == Role::kWalking && Cred() > rejecter) {
      TrackCapture(ctx, port);
      ctx.Send(port, Packet{kFCapture, {id_, level_}});
      return;
    }
    sup_port_ = port;  // the rejecter (or its relay) outranked us
    Die(ctx);
  }

  void HandleCapture(Context& ctx, Port port, Contender c) {
    if (captured_) {
      EnqueueContender(ctx, c);
      return;
    }
    // A declared leader is final; it outranks any credential.
    if (role_ == Role::kLeader) {
      ctx.Send(port, Packet{kFReject, {id_, level_}});
      return;
    }
    // Protocol G: nodes that have not started their second phase are
    // regarded as passive — they accept unconditionally (Lemma 4.3(a)).
    if (params_.g_phases && !InSecondPhaseOrLater()) {
      BecomeCaptured(ctx, port);
      ctx.Send(port, Packet{kFAccept, {}});
      return;
    }
    // A node that never woke as a base node has nothing to defend: it is
    // captured outright. (Letting passive nodes contest with (0, id)
    // would let a lone small-identity candidate be killed by a passive
    // bystander and leave the network leaderless.)
    if (!is_base()) {
      BecomeCaptured(ctx, port);
      ctx.Send(port, Packet{kFAccept, {}});
      return;
    }
    // AG85 contest among base nodes (live candidates and killed ones
    // alike) on their own current (level, id).
    if (Cred() < c.Cred()) {
      BecomeCaptured(ctx, port);
      ctx.Send(port, Packet{kFAccept, {}});
    } else {
      ctx.Send(port, Packet{kFReject, {id_, level_}});
    }
  }

  // ---- Forwarding at captured nodes ----------------------------------

  void EnqueueContender(Context& ctx, Contender c) {
    // Fires on every forwarded contender — record through the interned
    // ref, not the string path.
    if (fwd_peak_ref_.slot == sim::CounterRef::kUnresolved) {
      fwd_peak_ref_ = ctx.ResolveCounter(kCounterFwdQueuePeak);
    }
    if (!params_.throttle_forwards) {
      // Raw AG85: forward immediately; replies match in FIFO order.
      fifo_.push_back(c);
      ctx.MaxCounter(fwd_peak_ref_,
                     static_cast<std::int64_t>(fifo_.size() - fifo_head_));
      ctx.Send(owner_port_, Packet{kFFwd, {c.id, c.level}});
      return;
    }
    pending_.push_back(c);
    ctx.MaxCounter(fwd_peak_ref_,
                   static_cast<std::int64_t>(pending_.size()));
    PumpForward(ctx);
  }

  void PumpForward(Context& ctx) {
    if (inflight_ || pending_.empty()) return;
    auto best = std::max_element(
        pending_.begin(), pending_.end(),
        [](const Contender& a, const Contender& b) {
          return a.Cred() < b.Cred();
        });
    inflight_ = *best;
    pending_.erase(best);
    if (Ft() && owner_dead_) {
      // The owner was condemned: the contest is decided without a round
      // trip, and the winner becomes the new (live) owner.
      HandleFwdReply(ctx, /*owner_killed=*/true, Credential{});
      return;
    }
    ctx.Send(owner_port_, Packet{kFFwd, {inflight_->id, inflight_->level}});
    ArmOwnerWatch(ctx);
  }

  void HandleFwd(Context& ctx, Port port, Id cand, std::int64_t cand_level) {
    // FT: our own retried capture, echoed back through a node we already
    // own. Granting it (rather than contesting our own credential and
    // losing the tie) re-converges the forwarder on us as owner and
    // re-sends the accept that was lost.
    if (Ft() && cand == id_ && !captured_ && role_ != Role::kDead) {
      ctx.Send(port, Packet{kFFwdAccept, {}});
      return;
    }
    // We are (or were) the owner of the forwarding node.
    if (LiveCandidate()) {
      if (role_ == Role::kLeader) {
        ctx.Send(port, Packet{kFFwdReject, {id_, level_}});
        return;
      }
      // Owners still short of their second phase count as passive under
      // protocol G (Lemma 4.3(c)) and are killed unconditionally.
      bool forced = params_.g_phases && !InSecondPhaseOrLater();
      if (!forced && Cred() > Credential{cand_level, cand}) {
        ctx.Send(port, Packet{kFFwdReject, {id_, level_}});
        return;
      }
      sup_port_ = port;  // the contender that killed us sits past this relay
      Die(ctx);  // the contender killed us
    }
    ctx.Send(port, Packet{kFFwdAccept, {}});
  }

  void HandleFwdReply(Context& ctx, bool owner_killed,
                      Credential rejecter) {
    if (!params_.throttle_forwards) {
      CELECT_CHECK(fifo_head_ < fifo_.size()) << "unmatched forward reply";
      const Contender c = fifo_[fifo_head_++];
      if (fifo_head_ == fifo_.size()) {
        fifo_.clear();
        fifo_head_ = 0;
      }
      if (owner_killed) {
        owner_port_ = c.port;
        ctx.Send(c.port, Packet{kFAccept, {}});
      } else {
        ctx.Send(c.port, Packet{kFReject, {rejecter.id, rejecter.level}});
      }
      return;
    }
    // Under FT a reply can be unmatched: the watchdog condemned the owner
    // and settled the contest, or an injected duplicate replayed a reply.
    if (Ft() && !inflight_.has_value()) return;
    CELECT_CHECK(inflight_.has_value()) << "unmatched forward reply";
    if (!owner_killed) {
      ctx.Send(inflight_->port,
               Packet{kFReject, {rejecter.id, rejecter.level}});
      inflight_.reset();
      PumpForward(ctx);
      return;
    }
    // Owner killed: the largest contender seen so far takes this node
    // (paper Ɛ: "sends an accept to the node from which it has received
    // the largest (level, id) pair so far"); everyone else now contests
    // the new owner.
    Contender winner = *inflight_;
    inflight_.reset();
    auto best = std::max_element(
        pending_.begin(), pending_.end(),
        [](const Contender& a, const Contender& b) {
          return a.Cred() < b.Cred();
        });
    if (best != pending_.end() && best->Cred() > winner.Cred()) {
      // A stronger contender arrived while the forward was in flight: it
      // takes the node, and the forwarded one goes back to the pool to
      // contest the new owner.
      std::swap(*best, winner);
    }
    owner_port_ = winner.port;
    owner_dead_ = false;  // the new owner is the live node that just won
    ctx.Send(winner.port, Packet{kFAccept, {}});
    PumpForward(ctx);
  }

  // ---- Broadcast round (protocol D with the (level, maxid) rule) -----
  //
  // With f = 0 this is exactly the paper's protocol F/G finale: accept
  // iff (level_j, maxid_j) < (level_i, i), weaker broadcasters stall
  // silently, quorum is all N-1 accepts. With f > 0 the quorum drops to
  // N-1-f, which alone would let a slow rival assemble a second quorum
  // after the first leader declared; the confirm round closes that: a
  // broadcaster with an elect quorum must also *lock* N-1-f nodes, a
  // locked node rejects every other candidate until its owner dies and
  // releases it, and two disjoint locked quorums cannot coexist for
  // f < (N-1)/2.

  void StartBroadcast(Context& ctx) {
    if (role_ == Role::kBroadcasting || role_ == Role::kLeader) return;
    role_ = Role::kBroadcasting;
    // A recovery handler may start the broadcast; its span ends at the
    // decision so the broadcast span is not nested under (and truncated
    // with) it.
    ClosePhaseSpans(ctx);
    ctx.BeginPhase(obs::PhaseId::kBroadcast);
    ctx.AddCounter(ctx.ResolveCounter(kCounterBroadcasters), 1);
    if (Ft() && bc_timer_ == sim::kInvalidTimer) {
      bc_timer_ = ctx.SetTimer(kRecoveryPeriod);
    }
    // Carry the *actual* level: G's first phase can push it past the
    // walk target (up to k+f first-phase accepts), and two such
    // broadcasters must still rank each other — advertising only the
    // target would let them ignore one another forever.
    ctx.SendAll(Packet{kFElect, {id_, level_}});
  }

  void HandleElect(Context& ctx, Port port, Id cand,
                   std::int64_t cand_level) {
    const bool ft = params_.f > 0;
    if (role_ == Role::kLeader) {
      if (ft) ctx.Send(port, Packet{kFElectRejectStronger, {}});
      return;
    }
    if (ft && locked_) {
      if (locked_id_ == cand) {
        ctx.Send(port, Packet{kFElectAccept, {}});
        return;
      }
      // Remember the strongest rejected candidate: if our lock owner
      // dies we hint it to retry.
      if (cand > hint_id_) {
        hint_id_ = cand;
        hint_port_ = port;
      }
      ctx.Send(port, Packet{kFElectRejectLocked, {}});
      return;
    }
    if (Credential{level_, maxid_} < Credential{cand_level, cand}) {
      maxid_ = std::max(maxid_, cand);
      accepted_.insert(cand);  // dying to this elect licenses the lock
      sup_port_ = port;  // the broadcaster we accepted outranks us
      Die(ctx);
      ctx.Send(port, Packet{kFElectAccept, {}});
    } else if (ft) {
      ctx.Send(port, Packet{kFElectRejectStronger, {}});
    }
    // else (paper, f = 0): silence — the weaker broadcaster stalls.
  }

  void HandleElectAccept(Context& ctx, Port port) {
    if (role_ != Role::kBroadcasting) return;
    // Idempotent under FT retries; fresh accepts refund the retry budget
    // (the cap only bounds retries that make no progress at all).
    if (elect_ports_.insert(port).second) bc_retries_ = 0;
    if (elect_ports_.size() < elect_quorum_) return;
    if (params_.f == 0) {
      role_ = Role::kLeader;
      ctx.EndPhase(obs::PhaseId::kBroadcast);
      ctx.DeclareLeader();
      return;
    }
    if (!confirming_) {
      confirming_ = true;
      ctx.SendAll(Packet{kFConfirm, {id_}});
    }
  }

  void HandleConfirm(Context& ctx, Port port, Id cand) {
    if (locked_) {
      ctx.Send(port, Packet{locked_id_ == cand
                                ? static_cast<std::uint16_t>(kFConfirmAck)
                                : static_cast<std::uint16_t>(
                                      kFConfirmReject),
                            {}});
      return;
    }
    // Lock iff this node ever *accepted* the confirmer's elect (own id
    // deliberately excluded: a dead high-id node that accepted the elect
    // must still be able to confirm). Accepting an elect kills the
    // acceptor's candidacy at that moment, so whoever locks here is not a
    // live rival; and because each node accepts any strictly stronger
    // broadcaster over its lifetime, the accepted set may hold several
    // ids — including candidates that have since crashed. That is fine:
    // quorum disjointness rests on the lock being exclusive and on two
    // (N-1-f)-quorums intersecting, not on which acceptee is confirmed.
    // A revived candidate refuses to lend its lock while broadcasting.
    if (accepted_.count(cand) && role_ != Role::kLeader &&
        role_ != Role::kBroadcasting) {
      locked_ = true;
      locked_port_ = port;
      locked_id_ = cand;
      ctx.Send(port, Packet{kFConfirmAck, {}});
      // Lease probing: if the lock owner crashes before declaring or
      // releasing, the probe loop notices and self-releases — otherwise
      // this node would block every rival's quorum forever.
      if (Ft() && !over_ && lock_timer_ == sim::kInvalidTimer) {
        lock_silent_ = 0;
        lock_timer_ = ctx.SetTimer(kRecoveryPeriod);
      }
    } else {
      ctx.Send(port, Packet{kFConfirmReject, {}});
    }
  }

  void HandleConfirmAck(Context& ctx, Port port) {
    if (role_ != Role::kBroadcasting || !confirming_) return;
    if (confirm_ports_.insert(port).second) bc_retries_ = 0;
    if (confirm_ports_.size() >= elect_quorum_) {
      role_ = Role::kLeader;
      CancelIf(ctx, bc_timer_);
      ctx.EndPhase(obs::PhaseId::kBroadcast);
      ctx.DeclareLeader();
      // Final release: the election is decided. Locked nodes stand down
      // their lease probes and surviving rivals abandon their candidacy;
      // without this broadcast, lease probes of the leader's own quorum
      // would keep pinging it until their caps run out.
      ctx.SendAll(Packet{kFRelease, {1}});
    }
  }

  void HandleRelease(Context& ctx, Port port, bool final) {
    if (final) {
      // Sent only by a declared leader (unique by the quorum argument):
      // the election is over for everyone — every probe loop stands down.
      over_ = true;
      CancelIf(ctx, lock_timer_);
      CancelIf(ctx, rev_timer_);
      CancelIf(ctx, watch_timer_);
      CancelIf(ctx, fp_timer_);
      if (role_ != Role::kLeader) Die(ctx);
      return;
    }
    if (!locked_ || locked_port_ != port) return;
    locked_ = false;
    locked_id_ = 0;
    CancelIf(ctx, lock_timer_);
    if (hint_port_ != sim::kInvalidPort) {
      ctx.Send(hint_port_, Packet{kFRetryHint, {}});
      hint_port_ = sim::kInvalidPort;
      hint_id_ = 0;
    }
  }

  // ---- FT timer-driven recovery (params_.f > 0 only) -----------------
  //
  // Mid-run crashes leave handshakes dangling; four capped loops restore
  // liveness without touching the fault-free schedule:
  //   capture watchdog — retries a silent capture target, then abandons
  //     it and re-fills the f+1 window (or drains the second phase);
  //   broadcast retry — retransmits elect/confirm to unanswered ports;
  //   lease probe — a locked node pings its lock owner, self-releases
  //     (and hints the strongest rejected rival) after two silent
  //     intervals;
  //   owner watch — a captured node with a forward or check in flight
  //     pings its owner; condemnation settles the contest locally.

  void OnTimerFired(Context& ctx, sim::TimerId timer) override {
    // Recovery actions span the handler; a transition inside (revive,
    // broadcast) closes the span early at the moment of the decision.
    ctx.BeginPhase(obs::PhaseId::kRecovery);
    DispatchTimer(ctx, timer);
    ctx.EndPhase(obs::PhaseId::kRecovery);
  }

  // A transport-level crash hint for the node behind `port`. The
  // reliability layer only raises it after exhausting its own
  // retransmit budget, so waiting out the full recovery period for a
  // reply that can no longer arrive is wasted time: fast-forward the
  // pending capture on that port — mark it expired and out of retries —
  // and run the watchdog now. Everything else (locks, owner watches,
  // broadcast retries) keeps its timer-driven pace: those loops probe
  // nodes that may merely be slow, and the suspicion hint is allowed to
  // be wrong.
  void OnSuspicion(Context& ctx, sim::Port port) override {
    if (!Ft()) return;
    auto it = pending_caps_.find(port);
    if (it == pending_caps_.end()) return;
    it->second.retries = kMaxCaptureRetries;
    it->second.sent = ctx.now() - kRecoveryPeriod;
    ctx.AddCounter(ctx.ResolveCounter(kCounterSuspicions), 1);
    ctx.BeginPhase(obs::PhaseId::kRecovery);
    OnCaptureWatchdog(ctx);
    ctx.EndPhase(obs::PhaseId::kRecovery);
  }

  void DispatchTimer(Context& ctx, sim::TimerId timer) {
    if (timer == cap_timer_) {
      cap_timer_ = sim::kInvalidTimer;
      OnCaptureWatchdog(ctx);
    } else if (timer == bc_timer_) {
      bc_timer_ = sim::kInvalidTimer;
      OnBroadcastRetry(ctx);
    } else if (timer == lock_timer_) {
      lock_timer_ = sim::kInvalidTimer;
      OnLockProbe(ctx);
    } else if (timer == watch_timer_) {
      watch_timer_ = sim::kInvalidTimer;
      OnOwnerWatch(ctx);
    } else if (timer == fp_timer_) {
      fp_timer_ = sim::kInvalidTimer;
      OnFpRetry(ctx);
    } else if (timer == rev_timer_) {
      rev_timer_ = sim::kInvalidTimer;
      OnRevivalProbe(ctx);
    }
  }

  void TrackCapture(Context& ctx, Port port) {
    if (!Ft()) return;
    pending_caps_[port] = PendingCapture{ctx.now(), 0};
    if (cap_timer_ == sim::kInvalidTimer) {
      cap_timer_ = ctx.SetTimer(kRecoveryPeriod);
    }
  }

  // Returns whether the port was still awaiting a reply. Always true with
  // f = 0 (nothing is tracked, nothing is ever abandoned).
  bool UntrackCapture(Context& ctx, Port port) {
    if (!Ft()) return true;
    const bool was_pending = pending_caps_.erase(port) > 0;
    if (pending_caps_.empty()) CancelIf(ctx, cap_timer_);
    return was_pending;
  }

  void OnCaptureWatchdog(Context& ctx) {
    const bool can_retry = !captured_ && (role_ == Role::kWalking ||
                                          role_ == Role::kSecondPhase);
    std::vector<Port> abandoned;
    for (auto& [port, pc] : pending_caps_) {
      if (ctx.now() - pc.sent < kRecoveryPeriod) continue;
      if (can_retry && pc.retries < kMaxCaptureRetries) {
        ++pc.retries;
        pc.sent = ctx.now();
        ctx.Send(port, Packet{kFCapture, {id_, level_}});
      } else {
        abandoned.push_back(port);
      }
    }
    bool refill = false;
    for (Port port : abandoned) {
      pending_caps_.erase(port);
      if (captured_) continue;
      if (role_ == Role::kSecondPhase) {
        CELECT_CHECK(sp_pending_ > 0);
        if (--sp_pending_ == 0) FinishSecondPhase(ctx);
      } else if (role_ == Role::kWalking) {
        CELECT_CHECK(outstanding_ > 0);
        --outstanding_;
        refill = true;
      }
      // Any other role: the entry was a walk overshoot or this candidate
      // already died — dropping it is all that is needed.
    }
    if (refill && role_ == Role::kWalking) FillWindow(ctx);
    if (role_ == Role::kWalking && outstanding_ == 0 &&
        pending_caps_.empty() && level_ < walk_target_) {
      // Every port was tried and the abandoned targets took the missing
      // accepts with them: the walk target is unreachable. Broadcast with
      // the true level instead of stalling — the quorum rule keeps it
      // safe (small N with a crashed capture target hits this).
      StartBroadcast(ctx);
      return;
    }
    if (!pending_caps_.empty() && cap_timer_ == sim::kInvalidTimer) {
      cap_timer_ = ctx.SetTimer(kRecoveryPeriod);
    }
  }

  void OnBroadcastRetry(Context& ctx) {
    if (role_ != Role::kBroadcasting) return;
    if (bc_retries_ >= kMaxBroadcastRetries) return;  // give up quietly
    ++bc_retries_;
    // Resend elects even after the elect quorum is met: with crashes plus
    // loss the confirm quorum may need a node whose elect never arrived,
    // and it cannot lock to a candidate it never accepted.
    for (Port port = 1; port <= static_cast<Port>(n_) - 1; ++port) {
      if (!elect_ports_.count(port)) {
        ctx.Send(port, Packet{kFElect, {id_, level_}});
      }
    }
    if (confirming_ && confirm_ports_.size() < elect_quorum_) {
      for (Port port = 1; port <= static_cast<Port>(n_) - 1; ++port) {
        if (!confirm_ports_.count(port)) {
          ctx.Send(port, Packet{kFConfirm, {id_}});
        }
      }
    }
    bc_timer_ = ctx.SetTimer(kRecoveryPeriod);
  }

  void OnFpRetry(Context& ctx) {
    if (role_ != Role::kFirstPhase || fp_retries_ >= kMaxFpRetries) return;
    ++fp_retries_;
    for (Port port : fp_ports_) {
      if (!fp_answered_.count(port)) {
        ctx.Send(port, Packet{kGFirstPhase, {id_}});
      }
    }
    fp_timer_ = ctx.SetTimer(kRecoveryPeriod);
  }

  void OnLockProbe(Context& ctx) {
    if (!locked_ || over_) return;
    if (lock_silent_ >= kLockSilenceLimit) {
      // Two unanswered probes: the lock owner crashed without releasing.
      // Self-release and hint the strongest rejected rival to retry, or
      // every other candidate stays short of its quorum forever.
      locked_ = false;
      locked_id_ = 0;
      if (hint_port_ != sim::kInvalidPort) {
        ctx.Send(hint_port_, Packet{kFRetryHint, {}});
        hint_port_ = sim::kInvalidPort;
        hint_id_ = 0;
      }
      return;
    }
    if (lock_probes_ >= kMaxLockProbes) return;  // stay locked, go quiet
    ++lock_probes_;
    ++lock_silent_;
    ctx.Send(locked_port_, Packet{kFOwnerPing, {kTagLock}});
    lock_timer_ = ctx.SetTimer(kRecoveryPeriod);
  }

  void ArmOwnerWatch(Context& ctx) {
    if (!Ft() || watch_timer_ != sim::kInvalidTimer) return;
    watch_silent_ = 0;
    watch_timer_ = ctx.SetTimer(kRecoveryPeriod);
  }

  void OnOwnerWatch(Context& ctx) {
    if (!captured_ || owner_dead_) return;
    if (!inflight_.has_value() && !check_busy_) return;  // resolved; done
    if (watch_silent_ >= 2 || watch_probes_ >= kMaxWatchProbes) {
      CondemnOwner(ctx);
      return;
    }
    ++watch_probes_;
    ++watch_silent_;
    ctx.Send(owner_port_, Packet{kFOwnerPing, {kTagWatch}});
    // Retransmit the stalled request too: under loss the request (or its
    // reply) may be gone even though the owner is alive. A duplicate
    // answer is absorbed by the unmatched-reply guards.
    if (inflight_) {
      ctx.Send(owner_port_, Packet{kFFwd, {inflight_->id, inflight_->level}});
    }
    if (check_busy_) ctx.Send(owner_port_, Packet{kGCheck, {}});
    watch_timer_ = ctx.SetTimer(kRecoveryPeriod);
  }

  void CondemnOwner(Context& ctx) {
    owner_dead_ = true;
    if (check_busy_) {
      // A dead owner never finishes its first phase: queued askers may
      // proceed (and can then capture this node for themselves).
      check_busy_ = false;
      for (Port q : check_queue_) ctx.Send(q, Packet{kGProceed, {}});
      check_queue_.clear();
    }
    if (inflight_) {
      // Settle the in-flight contest as if the owner had been killed;
      // the winner becomes the new owner and owner_dead_ resets.
      HandleFwdReply(ctx, /*owner_killed=*/true, Credential{});
    }
  }

  void HandlePong(Context& ctx, std::int64_t tag, std::int64_t status) {
    if (status == kPongLeader) {
      // Election decided; every probe loop stands down for good.
      over_ = true;
      CancelIf(ctx, lock_timer_);
      CancelIf(ctx, rev_timer_);
      return;
    }
    if (tag == kTagWatch) {
      // Any pong counts: a dead or captured owner still relays forwards
      // and answers checks, so the watch only cares that it is not
      // crashed.
      watch_silent_ = 0;
    } else if (tag == kTagLock) {
      if (status == kPongStanding && locked_) {
        // The lock owner was killed or captured: its kFRelease was lost
        // (or it died before sending one). Release now — waiting out the
        // silence limit would never trigger, since dead nodes answer.
        locked_ = false;
        locked_id_ = 0;
        CancelIf(ctx, lock_timer_);
        if (hint_port_ != sim::kInvalidPort) {
          ctx.Send(hint_port_, Packet{kFRetryHint, {}});
          hint_port_ = sim::kInvalidPort;
          hint_id_ = 0;
        }
        return;
      }
      lock_silent_ = 0;
    } else if (tag == kTagSuperior) {
      if (status == kPongStanding) {
        // Our superior was itself killed or captured and is not coming
        // back on its own; with both of us down nobody drives the race.
        Revive(ctx);
        return;
      }
      rev_silent_ = 0;  // whoever outranked us is still pursuing
    }
  }

  // ---- Revival: the last-resort liveness loop --------------------------
  //
  // Contest kills are only safe while the killer stays alive: a candidate
  // can reject (kill) every rival and then crash, leaving no live
  // candidate anywhere. So every killed or captured base node keeps a slow
  // watch on the node that outranked it — its owner, or the port that
  // delivered the fatal reject. If that superior is condemned (two silent
  // revival periods) the node re-enters the race from its current level.
  // Chains resolve inductively: each watch points at a node that held a
  // strictly larger credential at kill time, so some watch in every chain
  // ends at a live candidate (pong: stay down), at the leader (pong with
  // the leader flag: the election is over), or at a crashed node (revive).
  // Revived candidates cannot break safety — declaring still takes the
  // elect + confirm quorums — and every loop here is capped.

  void ArmRevivalWatch(Context& ctx) {
    if (!Ft() || over_ || !is_base()) return;
    if (rev_timer_ != sim::kInvalidTimer) return;
    rev_silent_ = 0;
    rev_timer_ = ctx.SetTimer(kRevivalPeriod);
  }

  void OnRevivalProbe(Context& ctx) {
    if (over_ || !(captured_ || role_ == Role::kDead)) return;
    if (inflight_ || check_busy_) {
      // A forward or check is in flight: the owner watch is already
      // probing the same owner on a faster clock; stay out of its way.
      rev_timer_ = ctx.SetTimer(kRevivalPeriod);
      return;
    }
    const Port target = captured_ ? owner_port_ : sup_port_;
    if (target == sim::kInvalidPort) return;
    if ((captured_ && owner_dead_) || rev_silent_ >= 2) {
      Revive(ctx);
      return;
    }
    if (rev_probes_ >= kMaxRevProbes) return;
    ++rev_probes_;
    ++rev_silent_;
    ctx.Send(target, Packet{kFOwnerPing, {kTagSuperior}});
    rev_timer_ = ctx.SetTimer(kRevivalPeriod);
  }

  void Revive(Context& ctx) {
    if (over_ || revivals_ >= kMaxRevivals) return;
    ++revivals_;
    // Contenders we were holding as a captured node get a reject carrying
    // our credential; a stronger one will simply re-contest us directly.
    if (inflight_) {
      ctx.Send(inflight_->port, Packet{kFReject, {id_, level_}});
      inflight_.reset();
    }
    for (const Contender& c : pending_) {
      ctx.Send(c.port, Packet{kFReject, {id_, level_}});
    }
    pending_.clear();
    captured_ = false;
    owner_dead_ = false;
    owner_port_ = sim::kInvalidPort;
    CancelIf(ctx, watch_timer_);
    // Stale candidacy state from the life before the kill.
    pending_caps_.clear();
    CancelIf(ctx, cap_timer_);
    outstanding_ = 0;
    sp_pending_ = 0;
    sp_accepts_ = 0;
    elect_ports_.clear();
    confirming_ = false;
    confirm_ports_.clear();
    bc_retries_ = 0;
    CancelIf(ctx, bc_timer_);
    rev_silent_ = 0;
    // Restart the walk from scratch. The old candidacy's ports must be
    // re-askable: a crashed high-id rival has poisoned every node's
    // maxid, so a level-0 broadcast is rejected everywhere — only
    // capturing (and out-levelling the poison) can win now. Re-capturing
    // a node we already own echoes our own credential back through the
    // forward chain; HandleFwd's self-contest guard grants those.
    sent_ports_.clear();
    walk_cursor_ = 1;
    role_ = Role::kWalking;
    reached_second_ = true;
    // A revival decided inside a recovery handler ends that span; the
    // re-entered race opens a fresh capture span.
    ctx.EndPhase(obs::PhaseId::kRecovery);
    ctx.BeginPhase(obs::PhaseId::kCapture1);
    FillWindow(ctx);  // falls back to a true-level broadcast if every
                      // remaining port is crashed (see FillWindow)
  }

  // ---- Protocol G first and second phases ----------------------------

  void StartFirstPhase(Context& ctx) {
    role_ = Role::kFirstPhase;
    ctx.BeginPhase(obs::PhaseId::kWakeup);
    fp_sent_ = std::min<std::uint32_t>(params_.k + params_.f, n_ - 1);
    fp_threshold_ = fp_sent_ > params_.f ? fp_sent_ - params_.f : 1;
    for (std::uint32_t i = 0; i < fp_sent_; ++i) {
      auto port = NextWalkPort();
      CELECT_CHECK(port.has_value());
      sent_ports_.insert(*port);
      fp_ports_.push_back(*port);
      ctx.Send(*port, Packet{kGFirstPhase, {id_}});
    }
    // Lossy links can silence more than the f crashed nodes the
    // threshold budgets for; the retry loop re-asks whoever is silent.
    if (Ft()) fp_timer_ = ctx.SetTimer(kRecoveryPeriod);
  }

  enum class FpResponse { kAccept, kProceed, kFinish };

  void HandleFpResponse(Context& ctx, Port port, FpResponse r) {
    if (role_ != Role::kFirstPhase) return;  // late (FT) responses
    // One vote per asked port: retransmitted first-phase requests can be
    // answered twice, and a doubled accept would inflate the level.
    if (Ft() && !fp_answered_.insert(port).second) return;
    switch (r) {
      case FpResponse::kAccept:
        ++fp_accepts_;
        break;
      case FpResponse::kProceed:
        fp_proceed_ports_.push_back(port);
        break;
      case FpResponse::kFinish:
        fp_finish_ = true;
        sup_port_ = port;  // relay toward whoever finished first
        break;
    }
    if (++fp_responses_ < fp_threshold_) return;
    fp_done_ = true;
    CancelIf(ctx, fp_timer_);
    AnswerPendingChecks(ctx);
    if (fp_finish_ || captured_) {
      Die(ctx);
      return;
    }
    // Second phase: level := first-phase accepts; capture every node
    // that answered proceed, in parallel.
    role_ = Role::kSecondPhase;
    ctx.EndPhase(obs::PhaseId::kWakeup);
    ctx.BeginPhase(obs::PhaseId::kCapture1);
    reached_second_ = true;
    level_ = fp_accepts_;
    sp_pending_ = static_cast<std::uint32_t>(fp_proceed_ports_.size());
    if (sp_pending_ == 0) {
      FinishSecondPhase(ctx);
      return;
    }
    for (Port port : fp_proceed_ports_) {
      TrackCapture(ctx, port);
      ctx.Send(port, Packet{kFCapture, {id_, level_}});
    }
  }

  void FinishSecondPhase(Context& ctx) {
    level_ += sp_accepts_;
    role_ = Role::kWalking;
    if (level_ >= walk_target_) {
      StartBroadcast(ctx);
    } else {
      FillWindow(ctx);
    }
  }

  void HandleFirstPhase(Context& ctx, Port port) {
    if (captured_) {
      // Ask our owner whether it finished its first phase; one check
      // outstanding at a time, further askers queue behind it.
      if (owner_finished_) {
        ctx.Send(port, Packet{kGFinish, {}});
        return;
      }
      if (Ft() && owner_dead_) {
        // A condemned owner can never finish its first phase.
        ctx.Send(port, Packet{kGProceed, {}});
        return;
      }
      check_queue_.push_back(port);
      if (!check_busy_) {
        check_busy_ = true;
        ctx.Send(owner_port_, Packet{kGCheck, {}});
        ArmOwnerWatch(ctx);
      }
      return;
    }
    if (is_base() && fp_done_) {
      ctx.Send(port, Packet{kGFinish, {}});
      return;
    }
    if (is_base() && role_ == Role::kFirstPhase) {
      ctx.Send(port, Packet{kGProceed, {}});
      return;
    }
    // Passive (or awakened-non-base) uncaptured node: captured by the
    // asker.
    BecomeCaptured(ctx, port);
    ctx.Send(port, Packet{kGPAccept, {}});
  }

  void HandleCheckReply(Context& ctx, bool finished) {
    // Under FT a late reply can cross a condemnation or a retransmitted
    // check can be answered twice.
    if (Ft() && !check_busy_) return;
    CELECT_CHECK(check_busy_) << "unexpected check reply";
    check_busy_ = false;
    if (finished) owner_finished_ = true;
    std::uint16_t reply = finished ? kGFinish : kGProceed;
    for (Port port : check_queue_) ctx.Send(port, Packet{reply, {}});
    check_queue_.clear();
  }

  void AnswerPendingChecks(Context&) {
    // Nothing to do: checks are answered by the owner, not by us. Hook
    // retained for symmetry/clarity when first phase completes.
  }

  const Id id_;
  const std::uint32_t n_;
  const EfgParams params_;

  Role role_ = Role::kPassive;
  bool reached_second_ = false;  // G: ever entered the second phase
  bool captured_ = false;
  Port owner_port_ = sim::kInvalidPort;
  std::int64_t level_ = 0;
  Id maxid_;
  std::int64_t walk_target_ = 0;
  std::uint32_t window_ = 1;
  std::uint32_t elect_quorum_ = 0;

  // Walk state.
  std::unordered_set<Port> sent_ports_;
  Port walk_cursor_ = 1;
  std::uint32_t outstanding_ = 0;
  // Doubling-walk state ([Si92] variant).
  std::int64_t next_batch_ = 1;
  std::uint32_t batch_pending_ = 0;
  std::uint32_t batch_accepts_ = 0;

  // Forwarding state (captured nodes).
  std::vector<Contender> pending_;
  std::optional<Contender> inflight_;
  // Unthrottled mode: forwarded contenders awaiting their replies,
  // oldest at fifo_head_. A vector, emptied once every reply is in,
  // rather than a deque, whose construction alone allocates.
  std::vector<Contender> fifo_;
  std::size_t fifo_head_ = 0;
  // Interned handle for the per-forward queue-peak gauge, resolved on
  // first use (contexts without a metrics backend leave it unresolved
  // and the record falls back to the string path).
  sim::CounterRef fwd_peak_ref_{kCounterFwdQueuePeak,
                                sim::CounterRef::kUnresolved};

  // Broadcast state.
  std::unordered_set<Port> elect_ports_;

  // FT confirm-round state.
  bool confirming_ = false;
  std::unordered_set<Port> confirm_ports_;
  std::unordered_set<Id> accepted_;  // broadcasters whose elect we took
  bool locked_ = false;
  Port locked_port_ = sim::kInvalidPort;
  Id locked_id_ = 0;
  Port hint_port_ = sim::kInvalidPort;
  Id hint_id_ = 0;

  // G first/second phase state.
  std::uint32_t fp_sent_ = 0;
  std::uint32_t fp_threshold_ = 0;
  std::uint32_t fp_responses_ = 0;
  std::uint32_t fp_accepts_ = 0;
  bool fp_finish_ = false;
  bool fp_done_ = false;
  std::vector<Port> fp_proceed_ports_;
  std::uint32_t sp_pending_ = 0;
  std::uint32_t sp_accepts_ = 0;

  // Check machinery (captured nodes answering first-phase queries).
  bool check_busy_ = false;
  bool owner_finished_ = false;
  std::vector<Port> check_queue_;

  // FT timer-driven recovery state (f > 0 only; all timers stay
  // kInvalidTimer with f = 0).
  struct PendingCapture {
    sim::Time sent;
    std::uint32_t retries = 0;
  };
  // Ordered: OnCaptureWatchdog iterates this map and sends retransmits
  // in iteration order, which reaches message uids and fingerprints.
  std::map<Port, PendingCapture> pending_caps_;
  sim::TimerId cap_timer_ = sim::kInvalidTimer;
  sim::TimerId bc_timer_ = sim::kInvalidTimer;
  std::uint32_t bc_retries_ = 0;
  sim::TimerId lock_timer_ = sim::kInvalidTimer;
  std::uint32_t lock_probes_ = 0;
  std::uint32_t lock_silent_ = 0;
  sim::TimerId watch_timer_ = sim::kInvalidTimer;
  std::uint32_t watch_probes_ = 0;
  std::uint32_t watch_silent_ = 0;
  bool owner_dead_ = false;
  // First-phase retransmits.
  std::vector<Port> fp_ports_;
  std::unordered_set<Port> fp_answered_;
  sim::TimerId fp_timer_ = sim::kInvalidTimer;
  std::uint32_t fp_retries_ = 0;
  // Revival watch.
  bool over_ = false;  // a leader is known to exist; all recovery stops
  Port sup_port_ = sim::kInvalidPort;  // port that delivered the kill
  sim::TimerId rev_timer_ = sim::kInvalidTimer;
  std::uint32_t rev_silent_ = 0;
  std::uint32_t rev_probes_ = 0;
  std::uint32_t revivals_ = 0;
};

}  // namespace

sim::ProcessFactory MakeEfgProcess(EfgParams params) {
  return [params](const sim::ProcessInit& init) {
    return std::make_unique<EfgNode>(init, params);
  };
}

}  // namespace celect::proto::nosod
