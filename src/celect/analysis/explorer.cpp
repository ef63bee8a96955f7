#include "celect/analysis/explorer.h"

#include <algorithm>
#include <map>

#include "celect/util/check.h"
#include "celect/util/text.h"

namespace celect::analysis {

namespace {

using sim::Event;
using sim::EventTarget;
using sim::NodeId;

// Event budget per execution: a protocol that does not quiesce on some
// schedule CHECK-fails loudly rather than spinning.
constexpr std::uint64_t kMaxEventsPerRun = 1'000'000;

// One node of the exploration tree: the enabled set seen at that depth,
// which alternative is currently being explored, and the sleep set
// (event -> target) of alternatives already covered or inherited.
// Frames persist across executions; re-executions of the prefix verify
// the enabled set is bit-identical (determinism guard).
struct Frame {
  std::vector<std::uint64_t> seqs;   // enabled event seqs, ascending
  std::vector<NodeId> targets;       // target node per enabled entry
  std::map<std::uint64_t, NodeId> sleep;
  std::uint32_t chosen = 0;
};

// Drives one execution: replays the persistent prefix, then extends it
// with first-awake choices, growing the frame stack. Aborts the run
// when every enabled event is asleep (the branch is redundant) or when
// a violation has been recorded (the counterexample ends here, and so
// does the exploration).
class DfsController : public sim::ScheduleController {
 public:
  enum class Stop { kNone, kSleepPruned, kViolation };

  DfsController(std::vector<Frame>& frames, ExploreStats& stats,
                const InvariantRegistry& registry)
      : frames_(frames), stats_(stats), registry_(registry) {}

  Stop stop() const { return stop_; }
  std::size_t depth() const { return depth_; }

  std::optional<std::size_t> ChooseNext(
      const std::vector<const Event*>& enabled) override {
    if (!registry_.ok()) {
      stop_ = Stop::kViolation;
      return std::nullopt;
    }
    stats_.max_enabled =
        std::max<std::uint64_t>(stats_.max_enabled, enabled.size());
    if (depth_ < frames_.size()) {
      // Prefix replay: the enabled set must be exactly what the earlier
      // execution saw, or the factory/config is nondeterministic.
      const Frame& f = frames_[depth_];
      CELECT_CHECK(f.seqs.size() == enabled.size())
          << "explorer replay diverged at depth " << depth_;
      for (std::size_t i = 0; i < enabled.size(); ++i) {
        CELECT_CHECK(f.seqs[i] == enabled[i]->seq)
            << "explorer replay diverged at depth " << depth_;
      }
      ++depth_;
      return f.chosen;
    }
    // New frontier: build the frame, inherit the sleep set.
    Frame f;
    f.seqs.reserve(enabled.size());
    f.targets.reserve(enabled.size());
    for (const Event* e : enabled) {
      f.seqs.push_back(e->seq);
      f.targets.push_back(EventTarget(e->body));
    }
    if (depth_ > 0) {
      const Frame& parent = frames_[depth_ - 1];
      const NodeId moved = parent.targets[parent.chosen];
      // Independent sleepers stay asleep; anything dependent with the
      // event just dispatched (same target node) wakes up.
      for (const auto& [seq, target] : parent.sleep) {
        if (target != moved) f.sleep.emplace(seq, target);
      }
    }
    std::optional<std::uint32_t> pick;
    for (std::uint32_t i = 0; i < f.seqs.size(); ++i) {
      if (f.sleep.find(f.seqs[i]) == f.sleep.end()) {
        pick = i;
        break;
      }
    }
    if (!pick) {
      // Every enabled event is asleep: all behaviours from here are
      // covered by schedules already explored.
      ++stats_.sleep_pruned;
      stop_ = Stop::kSleepPruned;
      return std::nullopt;
    }
    if (f.seqs.size() > 1) ++stats_.branch_points;
    f.chosen = *pick;
    frames_.push_back(std::move(f));
    ++depth_;
    return *pick;
  }

 private:
  std::vector<Frame>& frames_;
  ExploreStats& stats_;
  const InvariantRegistry& registry_;
  Stop stop_ = Stop::kNone;
  std::size_t depth_ = 0;
};

class ReplayController : public sim::ScheduleController {
 public:
  explicit ReplayController(const std::vector<std::uint32_t>& choices)
      : choices_(choices) {}

  std::optional<std::size_t> ChooseNext(
      const std::vector<const Event*>& enabled) override {
    std::uint32_t c = step_ < choices_.size() ? choices_[step_] : 0;
    ++step_;
    return std::min<std::size_t>(c, enabled.size() - 1);
  }

 private:
  const std::vector<std::uint32_t>& choices_;
  std::size_t step_ = 0;
};

std::vector<std::uint32_t> ChoicesOf(const std::vector<Frame>& frames,
                                     std::size_t depth) {
  std::vector<std::uint32_t> choices;
  choices.reserve(depth);
  for (std::size_t i = 0; i < depth && i < frames.size(); ++i) {
    choices.push_back(frames[i].chosen);
  }
  return choices;
}

// Greedy minimisation: zero each choice that is not needed to keep the
// violation reproducing, then drop the all-zero tail (replay treats
// missing choices as 0, so truncation is exact).
std::vector<std::uint32_t> Shrink(const sim::ProcessFactory& factory,
                                  const ConfigFactory& config,
                                  const InvariantOptions& invariants,
                                  std::vector<std::uint32_t> choices) {
  const auto reproduces = [&](const std::vector<std::uint32_t>& c) {
    return !ReplaySchedule(factory, config, c, invariants)
                .violations.empty();
  };
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (choices[i] == 0) continue;
    std::vector<std::uint32_t> cand = choices;
    cand[i] = 0;
    if (reproduces(cand)) choices = std::move(cand);
  }
  while (!choices.empty() && choices.back() == 0) choices.pop_back();
  return choices;
}

}  // namespace

ExploreResult Explore(const sim::ProcessFactory& factory,
                      const ConfigFactory& config,
                      const ExplorerOptions& opt) {
  ExploreResult out;
  std::vector<Frame> frames;
  std::uint64_t executions = 0;
  for (;;) {
    if (executions >= opt.max_schedules) {
      out.stats.budget_exhausted = true;
      break;
    }
    ++executions;
    InvariantRegistry registry(opt.invariants);
    DfsController controller(frames, out.stats, registry);
    sim::RuntimeOptions ro;
    ro.max_events = kMaxEventsPerRun;
    ro.observer = &registry;
    ro.controller = &controller;
    sim::Runtime runtime(config(), factory, ro);
    sim::RunResult result = runtime.Run();
    out.stats.events += result.events_processed;
    if (controller.stop() != DfsController::Stop::kSleepPruned) {
      ++out.stats.schedules;
    }
    if (!registry.ok()) {
      // The first violating schedule ends the exploration, shrunk to the
      // choices it needs.
      Counterexample cex;
      cex.choices = Shrink(factory, config, opt.invariants,
                           ChoicesOf(frames, controller.depth()));
      cex.violations =
          ReplaySchedule(factory, config, cex.choices, opt.invariants)
              .violations;
      cex.schedule = ScheduleToString(cex.choices);
      out.counterexample = std::move(cex);
      break;
    }
    // Backtrack: put the explored choice to sleep at the deepest frame
    // that still has an awake alternative; pop exhausted frames.
    bool more = false;
    while (!frames.empty()) {
      Frame& f = frames.back();
      f.sleep.emplace(f.seqs[f.chosen], f.targets[f.chosen]);
      std::optional<std::uint32_t> next;
      for (std::uint32_t i = 0; i < f.seqs.size(); ++i) {
        if (f.sleep.find(f.seqs[i]) == f.sleep.end()) {
          next = i;
          break;
        }
      }
      if (next) {
        f.chosen = *next;
        more = true;
        break;
      }
      frames.pop_back();
    }
    if (!more) break;  // exploration complete
  }
  return out;
}

ReplayOutcome ReplaySchedule(const sim::ProcessFactory& factory,
                             const ConfigFactory& config,
                             const std::vector<std::uint32_t>& choices,
                             const InvariantOptions& invariants) {
  InvariantRegistry registry(invariants);
  ReplayController controller(choices);
  sim::RuntimeOptions ro;
  ro.observer = &registry;
  ro.controller = &controller;
  sim::Runtime runtime(config(), factory, ro);
  ReplayOutcome out;
  out.result = runtime.Run();
  out.violations = registry.violations();
  return out;
}

TracedReplayOutcome ReplayScheduleTraced(
    const sim::ProcessFactory& factory, const ConfigFactory& config,
    const std::vector<std::uint32_t>& choices,
    const InvariantOptions& invariants) {
  InvariantRegistry registry(invariants);
  ReplayController controller(choices);
  sim::RuntimeOptions ro;
  ro.observer = &registry;
  ro.controller = &controller;
  ro.enable_trace = true;
  sim::Runtime runtime(config(), factory, ro);
  TracedReplayOutcome out;
  out.result = runtime.Run();
  out.records = runtime.trace().records();
  out.violations = registry.violations();
  return out;
}

std::string ScheduleToString(const std::vector<std::uint32_t>& choices) {
  std::string s;
  for (std::uint32_t c : choices) {
    if (!s.empty()) s += '.';
    s += std::to_string(c);
  }
  return s;
}

std::optional<std::vector<std::uint32_t>> ScheduleFromString(
    std::string_view s) {
  std::vector<std::uint32_t> choices;
  if (s.empty()) return choices;
  for (;;) {
    const std::size_t dot = s.find('.');
    const auto choice = ParseNumber<std::uint32_t>(s.substr(0, dot));
    if (!choice) return std::nullopt;
    choices.push_back(*choice);
    if (dot == std::string_view::npos) return choices;
    s.remove_prefix(dot + 1);
  }
}

}  // namespace celect::analysis
