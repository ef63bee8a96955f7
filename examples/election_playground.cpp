// Playground: run any protocol from the registry under any environment.
//
//   ./election_playground --protocol=C --n=256
//   ./election_playground --protocol=G --k=8 --wakeup=staggered
//   ./election_playground --protocol=A --wakeup=staggered --trace=true
//
// Use --help for the full knob list and the protocol catalogue.
#include <algorithm>
#include <iostream>
#include <vector>

#include "celect/harness/experiment.h"
#include "celect/harness/registry.h"
#include "celect/obs/trace_inspect.h"
#include "celect/sim/runtime.h"
#include "celect/util/flags.h"

int main(int argc, char** argv) {
  using namespace celect;
  Flags flags(argc, argv);

  std::string proto_name =
      flags.GetString("protocol", "C", "protocol name (see list below)");
  std::uint32_t n =
      static_cast<std::uint32_t>(flags.GetInt("n", 64, "network size"));
  std::uint32_t k = static_cast<std::uint32_t>(
      flags.GetInt("k", 0, "protocol parameter k (0 = default)"));
  std::uint64_t seed = flags.GetInt("seed", 1, "random seed");
  std::string delay = flags.GetString(
      "delay", "unit", "link delays: unit | random | eager");
  std::string wakeup = flags.GetString(
      "wakeup", "all", "wakeup plan: all | single | subset | staggered");
  std::uint32_t subset = static_cast<std::uint32_t>(flags.GetInt(
      "subset", 0, "base-node count for --wakeup=subset (0 = N/2)"));
  bool trace = flags.GetBool("trace", false, "print the event trace");

  if (flags.help_requested()) {
    std::cout << flags.HelpText() << "\nprotocols:\n"
              << harness::ProtocolListing();
    return 0;
  }

  auto spec = harness::FindProtocol(proto_name);
  if (!spec) {
    std::cerr << "unknown protocol '" << proto_name << "'. Available:\n"
              << harness::ProtocolListing();
    return 1;
  }
  if (spec->needs_power_of_two && (n & (n - 1)) != 0) {
    std::cerr << "protocol " << spec->name << " requires N = 2^r\n";
    return 1;
  }

  harness::RunOptions o;
  o.n = n;
  o.seed = seed;
  o.mapper = spec->needs_sense_of_direction
                 ? harness::MapperKind::kSenseOfDirection
                 : harness::MapperKind::kRandom;
  o.delay = delay == "random"  ? harness::DelayKind::kRandom
            : delay == "eager" ? harness::DelayKind::kEager
                               : harness::DelayKind::kUnit;
  o.wakeup = wakeup == "single"      ? harness::WakeupKind::kSingle
             : wakeup == "subset"    ? harness::WakeupKind::kRandomSubset
             : wakeup == "staggered" ? harness::WakeupKind::kStaggeredChain
                                     : harness::WakeupKind::kAllAtZero;
  o.wakeup_count = subset;

  std::cout << "protocol " << spec->name << " — " << spec->description
            << "\n"
            << harness::Describe(o) << "\n\n";

  sim::RuntimeOptions rt_opts;
  rt_opts.enable_trace = trace;
  sim::Runtime runtime(harness::BuildNetwork(o), spec->make(k), rt_opts);
  auto r = runtime.Run();

  std::cout << harness::Summarize(r) << "\n";
  std::cout << "message breakdown by type:\n";
  for (const auto& [type, count] : r.messages_by_type) {
    std::cout << "  type " << type << ": " << count << "\n";
  }
  if (!r.counters.empty()) {
    std::cout << "protocol counters:\n";
    for (const auto& [name, value] : r.counters) {
      std::cout << "  " << name << " = " << value << "\n";
    }
  }
  if (trace) {
    const auto& records = runtime.trace().records();
    std::cout << "\nfirst 100 trace records:\n"
              << obs::SerializeRecords(std::vector<sim::TraceRecord>(
                     records.begin(),
                     records.begin() + std::min<std::size_t>(
                                           records.size(), 100)));
  }
  return r.leader_declarations == 1 ? 0 : 2;
}
