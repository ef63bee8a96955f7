// Lint fixture: proto-observe / proto-phase-spans — SilentEngine has
// neither hook; only LoudEngine, which shares its .cpp, does.
#pragma once

namespace celect::proto {

class SilentEngine : public sim::Process {
 public:
  void OnWakeup(sim::Context& ctx) override;
};

}  // namespace celect::proto
