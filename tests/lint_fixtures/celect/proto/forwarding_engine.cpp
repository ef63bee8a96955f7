// Lint fixture: proto-phase-spans — the engine's only phase calls are
// its wrapper context forwarding the inner engine's spans to the
// context it wraps; it emits none of its own.
namespace celect::proto {

class ForwardingEngine : public sim::Process {
 public:
  sim::ProtocolObservables Observe() const override {
    return inner_->Observe();
  }

 private:
  class Wrapped : public sim::Context {
   public:
    explicit Wrapped(sim::Context& real) : real_(real) {}
    void BeginPhase(obs::PhaseId id) override { real_.BeginPhase(id); }
    void EndPhase(obs::PhaseId id) override { real().EndPhase(id); }

   private:
    sim::Context& real() { return real_; }
    sim::Context& real_;
  };

  sim::Process* inner_ = nullptr;
};

}  // namespace celect::proto
