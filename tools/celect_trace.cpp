// celect_trace — record, convert, validate and inspect simulation traces.
//
//   celect_trace record  --protocol=C --n=16 --seed=1 --out=run.trace
//       Runs one election with tracing on and writes the compact format
//       (add --perfetto=PATH to also write the Perfetto JSON).
//   celect_trace convert IN.trace --out=OUT.json
//       Compact -> Chrome trace-event / Perfetto JSON (ui.perfetto.dev).
//   celect_trace check   IN.trace|IN.json [--fifo=0]
//       Semantic validation (obs::CheckShards) of a shard file (leading
//       "#shard") or of a compact trace, checked as one shard per node:
//       per-shard clock discipline, global mid uniqueness, pairing of
//       every message outcome with its send, per-session FIFO (per
//       link in a compact trace). An exported .json gets a structural
//       scan. Exit 1 on any problem.
//   celect_trace merge   SHARD... [--out=MERGED] [--perfetto=PATH]
//       Folds per-process shard files into one canonical merged shard
//       file (and optionally one Perfetto timeline with a track per
//       process and cross-process flow arrows). Byte-identical output
//       for any argument order.
//   celect_trace text    IN.trace [--limit=N]
//       Human-readable listing.
//   celect_trace filter  IN.trace --out=OUT.trace
//                        [--node=3] [--type=2] [--phase=capture1]
//                        [--from=TICKS] [--to=TICKS]
//       Keeps the matching records (compact in, compact out).
//   celect_trace diff    A.trace B.trace
//       First divergence between two runs; exit 1 when they differ.
//   celect_trace chain   IN.trace --mid=42
//       The causal chain that produced message 42, oldest first, then
//       every outcome of the message itself.
//
// Every subcommand is deterministic: equal inputs give byte-equal
// outputs, so traces are diffable artifacts.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "celect/harness/experiment.h"
#include "celect/harness/registry.h"
#include "celect/obs/shard.h"
#include "celect/obs/trace_export.h"
#include "celect/obs/trace_inspect.h"
#include "celect/util/flags.h"

namespace {

using namespace celect;

int Fail(const std::string& message) {
  std::cerr << "celect_trace: " << message << "\n";
  return 1;
}

bool ReadFile(const std::string& path, std::string* out,
              std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& content,
               std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.flush();
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

// Loads a compact trace; exits via Fail on I/O or parse errors.
int LoadRecords(const std::string& path,
                std::vector<sim::TraceRecord>* records) {
  std::string text, error;
  if (!ReadFile(path, &text, &error)) return Fail(error);
  auto parsed = obs::ParseRecords(text, &error);
  if (!parsed) return Fail(path + ": " + error);
  *records = std::move(*parsed);
  return 0;
}

int CmdRecord(Flags& flags) {
  std::string name =
      flags.GetString("protocol", "C", "protocol name (see --list)");
  auto n = static_cast<std::uint32_t>(flags.GetInt("n", 16, "network size"));
  auto seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 1, "run seed"));
  std::string out_path =
      flags.GetString("out", "", "compact trace output path (default stdout)");
  std::string perfetto =
      flags.GetString("perfetto", "", "also write Perfetto JSON here");
  std::string wakeup =
      flags.GetString("wakeup", "all", "wakeup pattern: all|single|staggered");
  bool list = flags.GetBool("list", false, "list protocols and exit");
  if (flags.help_requested()) {
    std::cout << flags.HelpText();
    return 0;
  }
  if (list) {
    std::cout << harness::ProtocolListing();
    return 0;
  }

  auto spec = harness::FindProtocol(name);
  if (!spec) return Fail("unknown protocol " + name);
  if (spec->needs_power_of_two && (n & (n - 1)) != 0) {
    return Fail(spec->name + " needs N = 2^r");
  }

  harness::RunOptions ro;
  ro.n = n;
  ro.seed = seed;
  ro.mapper = spec->needs_sense_of_direction
                  ? harness::MapperKind::kSenseOfDirection
                  : harness::MapperKind::kRandom;
  if (wakeup == "single") {
    ro.wakeup = harness::WakeupKind::kSingle;
  } else if (wakeup == "staggered") {
    ro.wakeup = harness::WakeupKind::kStaggeredChain;
  } else if (wakeup != "all") {
    return Fail("unknown wakeup pattern " + wakeup);
  }
  harness::TracedRun run = harness::RunElectionTraced(spec->make(0), ro);

  std::string compact = obs::SerializeRecords(run.records);
  std::string error;
  if (out_path.empty()) {
    std::cout << compact;
  } else if (!WriteFile(out_path, compact, &error)) {
    return Fail(error);
  }
  if (!perfetto.empty()) {
    obs::TraceExportOptions eo;
    eo.process_name = "protocol " + spec->name + " n=" + std::to_string(n) +
                      " seed=" + std::to_string(seed);
    if (!obs::WriteChromeTrace(perfetto, run.records, eo)) {
      return Fail("cannot write " + perfetto);
    }
  }
  std::cerr << "recorded " << run.records.size() << " records ("
            << harness::Summarize(run.result) << ")\n";
  return 0;
}

int CmdConvert(Flags& flags) {
  std::string out_path =
      flags.GetString("out", "", "Perfetto JSON output path (default stdout)");
  std::string process =
      flags.GetString("name", "celect", "Perfetto process label");
  if (flags.help_requested() || flags.positional().size() != 2) {
    std::cout << "usage: celect_trace convert IN.trace --out=OUT.json\n";
    return flags.help_requested() ? 0 : 1;
  }
  std::vector<sim::TraceRecord> records;
  if (int rc = LoadRecords(flags.positional()[1], &records)) return rc;
  obs::TraceExportOptions eo;
  eo.process_name = process;
  std::string json = obs::ExportChromeTrace(records, eo);
  std::string error;
  if (out_path.empty()) {
    std::cout << json;
  } else if (!WriteFile(out_path, json, &error)) {
    return Fail(error);
  }
  return 0;
}

int CmdCheck(Flags& flags) {
  bool fifo = flags.GetBool(
      "fifo", true, "assert per-link FIFO (disable for reordered runs)");
  if (flags.help_requested() || flags.positional().size() != 2) {
    std::cout << "usage: celect_trace check IN.trace|IN.json [--fifo=0]\n";
    return flags.help_requested() ? 0 : 1;
  }
  const std::string& path = flags.positional()[1];
  std::string text, error;
  if (!ReadFile(path, &text, &error)) return Fail(error);

  // Exported documents get the structural JSON scan. Shard files and
  // compact traces (one shard per node) both go through CheckShards.
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    if (auto problem = obs::ValidateJson(text)) {
      return Fail(path + ": " + *problem);
    }
    std::cerr << path << ": well-formed JSON\n";
    return 0;
  }
  std::vector<obs::TraceShard> shards;
  if (text.compare(0, 6, "#shard") == 0) {
    auto parsed = obs::ParseShards(text, &error);
    if (!parsed) return Fail(path + ": " + error);
    shards = std::move(*parsed);
  } else {
    auto parsed = obs::ParseRecords(text, &error);
    if (!parsed) return Fail(path + ": " + error);
    shards = obs::ShardsFromRecords(*parsed);
  }
  obs::ShardCheckOptions so;
  so.expect_fifo = fifo;
  std::vector<std::string> problems = obs::CheckShards(shards, so);
  for (const std::string& p : problems) std::cerr << path << ": " << p << "\n";
  if (!problems.empty()) return 1;
  std::size_t records = 0;
  for (const auto& s : shards) records += s.records.size();
  std::cerr << path << ": " << shards.size() << " shards, " << records
            << " records, coherent\n";
  return 0;
}

int CmdMerge(Flags& flags) {
  std::string out_path = flags.GetString(
      "out", "", "merged shard file output path (default stdout)");
  std::string perfetto =
      flags.GetString("perfetto", "", "also write a Perfetto JSON timeline");
  std::string process =
      flags.GetString("name", "celect merged", "Perfetto process label");
  if (flags.help_requested() || flags.positional().size() < 2) {
    std::cout << "usage: celect_trace merge SHARD... [--out=MERGED]"
                 " [--perfetto=OUT.json] [--name=LABEL]\n";
    return flags.help_requested() ? 0 : 1;
  }
  obs::ShardReducer reducer;
  for (std::size_t i = 1; i < flags.positional().size(); ++i) {
    const std::string& path = flags.positional()[i];
    std::string text, error;
    if (!ReadFile(path, &text, &error)) return Fail(error);
    auto shards = obs::ParseShards(text, &error);
    if (!shards) return Fail(path + ": " + error);
    for (auto& s : *shards) reducer.Add(std::move(s));
  }
  std::string merged = reducer.SerializeMerged();
  std::string error;
  if (out_path.empty()) {
    std::cout << merged;
  } else if (!WriteFile(out_path, merged, &error)) {
    return Fail(error);
  }
  if (!perfetto.empty()) {
    obs::TraceExportOptions eo;
    eo.process_name = process;
    if (!obs::WriteMergedChromeTrace(perfetto, reducer.Merged(), eo)) {
      return Fail("cannot write " + perfetto);
    }
  }
  std::cerr << "merged " << reducer.added() << " shards into "
            << reducer.Merged().size() << " incarnations\n";
  return 0;
}

int CmdText(Flags& flags) {
  auto limit = static_cast<std::size_t>(
      flags.GetInt("limit", 0, "print at most N records (0 = all)"));
  if (flags.help_requested() || flags.positional().size() != 2) {
    std::cout << "usage: celect_trace text IN.trace [--limit=N]\n";
    return flags.help_requested() ? 0 : 1;
  }
  std::vector<sim::TraceRecord> records;
  if (int rc = LoadRecords(flags.positional()[1], &records)) return rc;
  if (limit && records.size() > limit) records.resize(limit);
  std::cout << obs::SerializeRecords(records);
  return 0;
}

int CmdFilter(Flags& flags) {
  obs::TraceFilter filter;
  if (flags.Has("node")) {
    filter.node = static_cast<sim::NodeId>(
        flags.GetInt("node", 0, "acting node or peer"));
  }
  if (flags.Has("type")) {
    filter.type =
        static_cast<std::uint16_t>(flags.GetInt("type", 0, "packet type"));
  }
  std::string phase =
      flags.GetString("phase", "", "phase tag (capture1, doubling, ...)");
  if (flags.Has("from")) {
    filter.min_ticks = flags.GetInt("from", 0, "min timestamp, ticks");
  }
  if (flags.Has("to")) {
    filter.max_ticks = flags.GetInt("to", 0, "max timestamp, ticks");
  }
  std::string out_path =
      flags.GetString("out", "", "filtered output path (default stdout)");
  if (flags.help_requested() || flags.positional().size() != 2) {
    std::cout << "usage: celect_trace filter IN.trace [--node=N] [--type=T]"
                 " [--phase=NAME] [--from=TICKS] [--to=TICKS]\n";
    return flags.help_requested() ? 0 : 1;
  }
  if (!phase.empty()) {
    auto id = obs::PhaseFromName(phase);
    if (!id) return Fail("unknown phase " + phase);
    filter.phase = *id;
  }
  std::vector<sim::TraceRecord> records;
  if (int rc = LoadRecords(flags.positional()[1], &records)) return rc;
  std::string compact =
      obs::SerializeRecords(obs::FilterRecords(records, filter));
  std::string error;
  if (out_path.empty()) {
    std::cout << compact;
  } else if (!WriteFile(out_path, compact, &error)) {
    return Fail(error);
  }
  return 0;
}

int CmdDiff(Flags& flags) {
  if (flags.help_requested() || flags.positional().size() != 3) {
    std::cout << "usage: celect_trace diff A.trace B.trace\n";
    return flags.help_requested() ? 0 : 1;
  }
  std::vector<sim::TraceRecord> a, b;
  if (int rc = LoadRecords(flags.positional()[1], &a)) return rc;
  if (int rc = LoadRecords(flags.positional()[2], &b)) return rc;
  if (auto divergence = obs::DiffRecords(a, b)) {
    std::cout << *divergence << "\n";
    return 1;
  }
  std::cerr << "identical (" << a.size() << " records)\n";
  return 0;
}

int CmdChain(Flags& flags) {
  auto mid = static_cast<std::uint64_t>(
      flags.GetInt("mid", 0, "message uid to explain"));
  if (flags.help_requested() || flags.positional().size() != 2 || mid == 0) {
    std::cout << "usage: celect_trace chain IN.trace --mid=UID\n";
    return flags.help_requested() ? 0 : 1;
  }
  std::vector<sim::TraceRecord> records;
  if (int rc = LoadRecords(flags.positional()[1], &records)) return rc;
  std::vector<sim::TraceRecord> chain = obs::CausalChain(records, mid);
  if (chain.empty()) return Fail("no send with mid=" + std::to_string(mid));
  std::cout << obs::SerializeRecords(chain);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string cmd =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (cmd == "record") return CmdRecord(flags);
  if (cmd == "convert") return CmdConvert(flags);
  if (cmd == "check") return CmdCheck(flags);
  if (cmd == "merge") return CmdMerge(flags);
  if (cmd == "text") return CmdText(flags);
  if (cmd == "filter") return CmdFilter(flags);
  if (cmd == "diff") return CmdDiff(flags);
  if (cmd == "chain") return CmdChain(flags);
  std::cout << "usage: celect_trace <record|convert|check|merge|text|filter|"
               "diff|chain> [args]\n       (each subcommand takes --help)\n";
  return cmd.empty() && flags.help_requested() ? 0 : 1;
}
