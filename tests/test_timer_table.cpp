// The runtime's timer table: id assignment, cancellation of dead or
// unknown ids, crash cleanup, table compaction, and the cost of a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "celect/sim/network.h"
#include "celect/sim/runtime.h"

namespace celect::sim {
namespace {

NetworkConfig TimerConfig(std::uint32_t n) {
  NetworkConfig c;
  c.n = n;
  c.mapper = MakeSodMapper(n);
  c.delays = MakeUnitDelay();
  c.wakeup = WakeAllAtZero(n);
  return c;
}

// Arms `count` timers on wakeup, recording every id it is handed.
class Armer : public Process {
 public:
  Armer(int count, std::vector<TimerId>* ids) : count_(count), ids_(ids) {}
  void OnWakeup(Context& ctx) override {
    for (int i = 0; i < count_; ++i) {
      ids_->push_back(ctx.SetTimer(Time::FromUnits(1 + i)));
    }
  }
  void OnMessage(Context&, Port, const wire::Packet&) override {}

 private:
  int count_;
  std::vector<TimerId>* ids_;
};

TEST(TimerTable, IdsCountUpFromOneInEachRuntime) {
  for (int run = 0; run < 2; ++run) {
    std::vector<TimerId> ids;
    auto factory = [&](const ProcessInit& init) {
      return std::make_unique<Armer>(static_cast<int>(init.address) + 2,
                                     &ids);
    };
    Runtime rt(TimerConfig(3), factory);
    const RunResult r = rt.Run();
    std::vector<TimerId> expected(ids.size());
    for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i + 1;
    EXPECT_EQ(ids, expected) << "run " << run;
    EXPECT_EQ(r.timers_fired, ids.size());
  }
}

// Arms three timers; when the first fires, cancels a fired id, a live
// id twice, an id never issued and kInvalidTimer. Only the one live
// cancel may count.
class Canceller : public Process {
 public:
  void OnWakeup(Context& ctx) override {
    first_ = ctx.SetTimer(Time::FromUnits(1));
    second_ = ctx.SetTimer(Time::FromUnits(5));
    third_ = ctx.SetTimer(Time::FromUnits(10));
  }
  void OnMessage(Context&, Port, const wire::Packet&) override {}
  void OnTimer(Context& ctx, TimerId timer) override {
    fired_.push_back(timer);
    if (timer != first_) return;
    ctx.CancelTimer(first_);   // already fired
    ctx.CancelTimer(second_);  // live: the one real cancel
    ctx.CancelTimer(second_);  // already cancelled
    ctx.CancelTimer(third_ + 1000);  // never issued
    ctx.CancelTimer(kInvalidTimer);
  }

  TimerId first_ = kInvalidTimer;
  TimerId second_ = kInvalidTimer;
  TimerId third_ = kInvalidTimer;
  std::vector<TimerId> fired_;
};

TEST(TimerTable, CancellingADeadOrUnknownIdIsANoOp) {
  NetworkConfig c = TimerConfig(2);
  c.wakeup = WakeSingle(2, 0);
  Canceller* node0 = nullptr;
  auto factory = [&](const ProcessInit& init) {
    auto p = std::make_unique<Canceller>();
    if (init.address == 0) node0 = p.get();
    return std::unique_ptr<Process>(std::move(p));
  };
  Runtime rt(std::move(c), factory);
  const RunResult r = rt.Run();
  ASSERT_NE(node0, nullptr);
  EXPECT_EQ(node0->fired_,
            (std::vector<TimerId>{node0->first_, node0->third_}));
  EXPECT_EQ(r.timers_fired, 2u);
  EXPECT_EQ(r.counters.at("sim.timers_cancelled"), 1);
  EXPECT_DOUBLE_EQ(r.quiesce_time.ToDouble(), 10.0);
}

// One record per timer a process armed or received, tagged with the
// incarnation (0 = first life, 1 = after the rejoin).
struct TimerLog {
  struct Entry {
    NodeId node;
    int life;
    TimerId timer;
  };
  std::vector<Entry> armed;
  std::vector<Entry> fired;
};

class Lifetimes : public Process {
 public:
  Lifetimes(NodeId node, int life, TimerLog* log)
      : node_(node), life_(life), log_(log) {}
  void OnWakeup(Context& ctx) override {
    for (int i = 1; i <= 4; ++i) Arm(ctx, Time::FromUnits(2 * i));
  }
  void OnRejoin(Context& ctx) override { Arm(ctx, Time::FromUnits(2)); }
  void OnMessage(Context&, Port, const wire::Packet&) override {}
  void OnTimer(Context&, TimerId timer) override {
    log_->fired.push_back({node_, life_, timer});
  }

 private:
  void Arm(Context& ctx, Time delay) {
    log_->armed.push_back({node_, life_, ctx.SetTimer(delay)});
  }
  NodeId node_;
  int life_;
  TimerLog* log_;
};

TEST(TimerTable, CrashCancelsExactlyTheVictimsTimers) {
  NetworkConfig c = TimerConfig(3);
  CrashSpec crash;
  crash.node = 1;
  crash.at = Time::FromUnits(3);  // after its t=2 timer, before t=4
  c.faults.crashes.push_back(crash);
  c.faults.rejoins.push_back(RejoinSpec{1, Time::FromUnits(5)});
  TimerLog log;
  std::vector<int> lives(3, 0);
  auto factory = [&](const ProcessInit& init) {
    return std::make_unique<Lifetimes>(init.address, lives[init.address]++,
                                       &log);
  };
  Runtime rt(std::move(c), factory);
  const RunResult r = rt.Run();

  auto count = [](const std::vector<TimerLog::Entry>& v, NodeId node,
                  int life) {
    return std::count_if(v.begin(), v.end(), [&](const auto& e) {
      return e.node == node && e.life == life;
    });
  };
  // Bystanders keep all four; the victim's first life got only the
  // timer that fired before the crash, its second life only its own.
  EXPECT_EQ(count(log.fired, 0, 0), 4);
  EXPECT_EQ(count(log.fired, 2, 0), 4);
  EXPECT_EQ(count(log.fired, 1, 0), 1);
  EXPECT_EQ(count(log.fired, 1, 1), 1);
  for (const auto& f : log.fired) {
    const bool armed_by_same_life =
        std::any_of(log.armed.begin(), log.armed.end(), [&](const auto& a) {
          return a.timer == f.timer && a.node == f.node && a.life == f.life;
        });
    EXPECT_TRUE(armed_by_same_life)
        << "timer " << f.timer << " fired into node " << f.node << " life "
        << f.life << ", which did not arm it";
  }
  EXPECT_EQ(r.timers_fired, 10u);
  // A crash is not a cancel: the victim's three dead timers are not
  // counted as cancellations.
  EXPECT_EQ(r.counters.count("sim.timers_cancelled"), 0u);
}

// A chain of one-tick timers, with one long timer armed part-way
// through that stays live while thousands of short ones come and go.
// Before it, the table compacts away dead prefixes; while it lives, it
// pins the prefix and the table grows past it; after it fires, the
// table compacts again.
class ShortChain : public Process {
 public:
  static constexpr int kShort = 20'000;
  static constexpr int kLongAfter = 5'000;
  static constexpr std::int64_t kLongTicks = 8'000;

  void OnWakeup(Context& ctx) override { Next(ctx); }
  void OnMessage(Context&, Port, const wire::Packet&) override {}
  void OnTimer(Context& ctx, TimerId timer) override {
    if (timer == long_) {
      long_fired_at_ = ctx.now();
      return;
    }
    ++short_fired_;
    if (short_fired_ == kLongAfter) {
      long_armed_at_ = ctx.now();
      long_ = ctx.SetTimer(Time::FromTicks(kLongTicks));
    }
    if (short_fired_ < kShort) Next(ctx);
  }
  void Next(Context& ctx) { ctx.SetTimer(Time::FromTicks(1)); }

  TimerId long_ = kInvalidTimer;
  Time long_armed_at_;
  Time long_fired_at_;
  int short_fired_ = 0;
};

TEST(TimerTable, LongTimerPinningCompactionFiresOnTime) {
  NetworkConfig c = TimerConfig(2);
  c.wakeup = WakeSingle(2, 0);
  ShortChain* chain = nullptr;
  auto factory = [&](const ProcessInit& init) {
    auto p = std::make_unique<ShortChain>();
    if (init.address == 0) chain = p.get();
    return std::unique_ptr<Process>(std::move(p));
  };
  Runtime rt(std::move(c), factory);
  const RunResult r = rt.Run();
  ASSERT_NE(chain, nullptr);
  // The long timer spans kLongTicks > 4,096 one-tick timers.
  static_assert(ShortChain::kLongTicks > 4096);
  EXPECT_EQ(chain->short_fired_, ShortChain::kShort);
  EXPECT_EQ(chain->long_fired_at_,
            chain->long_armed_at_ + Time::FromTicks(ShortChain::kLongTicks));
  EXPECT_EQ(r.timers_fired, ShortChain::kShort + 1u);
}

// Node 0 arms `bystanders` timers on wakeup that outlast the churn;
// node 1 arms two timers in every life and is crashed and revived
// kChurnCycles times, once per unit.
constexpr int kChurnCycles = 2'000;
constexpr std::int64_t kFarUnits = kChurnCycles + 10;

class ChurnTimers : public Process {
 public:
  ChurnTimers(NodeId node, int bystanders)
      : node_(node), bystanders_(bystanders) {}
  void OnWakeup(Context& ctx) override {
    if (node_ == 0) {
      for (int i = 0; i < bystanders_; ++i) {
        ctx.SetTimer(Time::FromUnits(kFarUnits));
      }
    } else {
      ArmPair(ctx);
    }
  }
  void OnRejoin(Context& ctx) override { ArmPair(ctx); }
  void OnMessage(Context&, Port, const wire::Packet&) override {}

 private:
  void ArmPair(Context& ctx) {
    ctx.SetTimer(Time::FromUnits(1));
    ctx.SetTimer(Time::FromUnits(2));
  }
  NodeId node_;
  int bystanders_;
};

// Times the events dispatched in sim time [1, end) units.
class ChurnClock : public RunObserver {
 public:
  explicit ChurnClock(std::int64_t end_units) : end_(end_units) {}
  void AfterEvent(NodeId, const RunInspect& in) override {
    const auto now = std::chrono::steady_clock::now();
    if (!started_ && in.now >= Time::FromUnits(1)) {
      started_ = true;
      start_ = now;
    }
    if (!stopped_ && in.now >= Time::FromUnits(end_)) {
      stopped_ = true;
      stop_ = now;
    }
  }
  void AtQuiescence(const RunInspect&) override {}
  double seconds() const {
    return std::chrono::duration<double>(stop_ - start_).count();
  }

 private:
  std::int64_t end_;
  bool started_ = false;
  bool stopped_ = false;
  std::chrono::steady_clock::time_point start_, stop_;
};

// The host time the churn phase took.
double ChurnPhaseSeconds(int bystanders) {
  NetworkConfig c = TimerConfig(2);
  for (int k = 1; k <= kChurnCycles; ++k) {
    CrashSpec crash;
    crash.node = 1;
    crash.at = Time::FromDouble(k + 0.25);
    c.faults.crashes.push_back(crash);
    c.faults.rejoins.push_back(RejoinSpec{1, Time::FromDouble(k + 0.5)});
  }
  ChurnClock clock(kChurnCycles + 1);
  RuntimeOptions opt;
  opt.observer = &clock;
  auto factory = [&](const ProcessInit& init) {
    return std::make_unique<ChurnTimers>(init.address, bystanders);
  };
  Runtime rt(std::move(c), factory, opt);
  const RunResult r = rt.Run();
  EXPECT_EQ(r.faults_injected, static_cast<std::uint64_t>(kChurnCycles));
  return clock.seconds();
}

TEST(TimerTable, CrashCostDoesNotGrowWithArmedTimers) {
  // 2,000 crashes with 16 vs 65,536 other timers live. A crash that
  // walked every armed timer would make the second phase hundreds of
  // times slower; the bound leaves a wide margin for host noise. Best
  // of three damps scheduler hiccups.
  double few = 1e9;
  double many = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    few = std::min(few, ChurnPhaseSeconds(16));
    many = std::min(many, ChurnPhaseSeconds(65'536));
  }
  std::cout << "[ timing ] churn phase " << few << " s with 16 timers, "
            << many << " s with 65,536\n";
  EXPECT_LT(many, 4 * few + 0.002)
      << "churn phase took " << many << " s with 65,536 armed timers vs "
      << few << " s with 16";
}

}  // namespace
}  // namespace celect::sim
