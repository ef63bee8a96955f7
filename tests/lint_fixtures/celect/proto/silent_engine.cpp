// Lint fixture: LoudEngine satisfies both engine contracts; the file's
// calls must not count for SilentEngine (silent_engine.h).
#include "celect/proto/silent_engine.h"

namespace celect::proto {

void SilentEngine::OnWakeup(sim::Context& ctx) { ctx.Send(1, 0); }

class LoudEngine : public sim::Process {
 public:
  void OnWakeup(sim::Context& ctx) override {
    ctx.BeginPhase(obs::PhaseId::kWakeup);
    ctx.EndPhase(obs::PhaseId::kWakeup);
  }
  sim::ProtocolObservables Observe() const override;
};

sim::ProtocolObservables LoudEngine::Observe() const { return {}; }

}  // namespace celect::proto
