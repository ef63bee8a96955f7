#include "celect/obs/trace_export.h"

#include <fstream>
#include <set>
#include <sstream>

#include "celect/obs/phase.h"
#include "celect/obs/trace_inspect.h"
#include "celect/util/logging.h"

namespace celect::obs {

namespace {

using sim::TraceRecord;

// Minimal JSON string escaping — names here are generated from enums and
// integers, but the process label is caller-supplied.
std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  out += '"';
  return out;
}

// The shared prefix of every event: name, phase letter, pid/tid/ts.
void Open(std::ostringstream& os, const std::string& name, char ph,
          int pid, sim::NodeId node, std::int64_t ts) {
  os << "{\"name\": " << Quoted(name) << ", \"ph\": \"" << ph
     << "\", \"pid\": " << pid << ", \"tid\": " << node
     << ", \"ts\": " << ts;
}

void Args(std::ostringstream& os, const TraceRecord& r) {
  os << ", \"args\": {\"seq\": " << r.seq << ", \"clock\": " << r.clock;
  if (r.mid != 0) os << ", \"mid\": " << r.mid;
  if (r.port != sim::kInvalidPort) os << ", \"port\": " << r.port;
  if (r.kind == TraceRecord::Kind::kSend || IsMessageOutcome(r.kind)) {
    os << ", \"type\": " << r.type << ", \"peer\": " << r.peer;
  }
  if (r.phase != PhaseId::kNone) {
    os << ", \"phase\": " << Quoted(PhaseKey(r.phase, r.phase_level));
  }
  os << "}";
}

// A zero-width slice a flow arrow can bind to (flow events attach to the
// slice on the same track at the same timestamp).
void Slice(std::ostringstream& os, const std::string& name, int pid,
           const TraceRecord& r) {
  Open(os, name, 'X', pid, r.node, r.at.ticks());
  os << ", \"dur\": 0";
  Args(os, r);
  os << "},\n";
}

void Flow(std::ostringstream& os, char ph, int pid,
          const TraceRecord& r) {
  Open(os, "msg", ph, pid, r.node, r.at.ticks());
  os << ", \"cat\": \"msg\", \"id\": " << r.mid;
  if (ph == 'f') os << ", \"bp\": \"e\"";
  os << "},\n";
}

void Instant(std::ostringstream& os, const std::string& name, char scope,
             int pid, const TraceRecord& r) {
  Open(os, name, 'i', pid, r.node, r.at.ticks());
  os << ", \"s\": \"" << scope << "\"";
  Args(os, r);
  os << "},\n";
}

std::string TypedName(const char* verb, std::uint16_t type) {
  std::ostringstream os;
  os << verb << " t" << type;
  return os.str();
}

void EmitRecord(std::ostringstream& os, int pid, const TraceRecord& r) {
  switch (r.kind) {
    case TraceRecord::Kind::kSend:
      Slice(os, TypedName("send", r.type), pid, r);
      Flow(os, 's', pid, r);
      break;
    case TraceRecord::Kind::kDeliver:
      Slice(os, TypedName("recv", r.type), pid, r);
      Flow(os, 'f', pid, r);
      break;
    case TraceRecord::Kind::kDrop:
      // The arrow still terminates somewhere visible: at the swallow.
      Slice(os, TypedName("drop", r.type), pid, r);
      if (r.mid != 0) Flow(os, 'f', pid, r);
      break;
    case TraceRecord::Kind::kLoss:
      Slice(os, TypedName("loss", r.type), pid, r);
      if (r.mid != 0) Flow(os, 'f', pid, r);
      break;
    case TraceRecord::Kind::kDuplicate:
      Instant(os, TypedName("dup", r.type), 't', pid, r);
      break;
    case TraceRecord::Kind::kWakeup:
      Instant(os, "wakeup", 't', pid, r);
      break;
    case TraceRecord::Kind::kLeader:
      Instant(os, "LEADER", 'g', pid, r);
      break;
    case TraceRecord::Kind::kCrash:
      Instant(os, "crash", 'p', pid, r);
      break;
    case TraceRecord::Kind::kRejoin:
      Instant(os, "rejoin", 'g', pid, r);
      break;
    case TraceRecord::Kind::kTimerSet:
      Instant(os, "timer set", 't', pid, r);
      break;
    case TraceRecord::Kind::kTimerFire:
      Instant(os, "timer fire", 't', pid, r);
      break;
    case TraceRecord::Kind::kTimerCancel:
      Instant(os, "timer cancel", 't', pid, r);
      break;
    case TraceRecord::Kind::kPhaseBegin:
      Open(os, PhaseKey(r.phase, r.phase_level), 'B', pid, r.node,
           r.at.ticks());
      Args(os, r);
      os << "},\n";
      break;
    case TraceRecord::Kind::kPhaseEnd:
      Open(os, PhaseKey(r.phase, r.phase_level), 'E', pid, r.node,
           r.at.ticks());
      Args(os, r);
      os << "},\n";
      break;
  }
}

}  // namespace

std::string ExportChromeTrace(const std::vector<sim::TraceRecord>& records,
                              const TraceExportOptions& opts) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";

  // Track metadata first: the process label, then one named, stably
  // ordered track per node that appears in the trace.
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"args\": {\"name\": "
     << Quoted(opts.process_name) << "}},\n";
  std::set<sim::NodeId> nodes;
  for (const auto& r : records) nodes.insert(r.node);
  for (sim::NodeId node : nodes) {
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": "
       << node << ", \"args\": {\"name\": \"node " << node << "\"}},\n";
    os << "{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": "
       << node << ", \"args\": {\"sort_index\": " << node << "}},\n";
  }

  for (const auto& r : records) EmitRecord(os, /*pid=*/1, r);

  // The trailing comma is legal in the trace-event format (the viewer
  // tolerates it), but emit a closing sentinel anyway so the document is
  // strict JSON for every other consumer.
  os << "{\"name\": \"trace_end\", \"ph\": \"M\", \"pid\": 1, "
        "\"args\": {\"records\": "
     << records.size() << "}}\n]}\n";
  return os.str();
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<sim::TraceRecord>& records,
                      const TraceExportOptions& opts) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    CELECT_LOG(Error) << "cannot open " << path << " for writing";
    return false;
  }
  out << ExportChromeTrace(records, opts);
  out.flush();
  if (!out) {
    CELECT_LOG(Error) << "short write to " << path;
    return false;
  }
  return true;
}

std::string ExportMergedChromeTrace(const std::vector<TraceShard>& shards,
                                    const TraceExportOptions& opts) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  // pid 0 carries the merge-level label; each shard is its own process.
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"args\": {\"name\": "
     << Quoted(opts.process_name) << "}},\n";
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const TraceShard& s = shards[i];
    int pid = static_cast<int>(i) + 1;
    std::ostringstream label;
    label << "node " << s.node;
    if (!s.label.empty()) label << " " << s.label;
    label << " epoch=" << s.epoch;
    if (!s.complete) label << " (incomplete)";
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
       << ", \"args\": {\"name\": " << Quoted(label.str()) << "}},\n";
    os << "{\"name\": \"process_sort_index\", \"ph\": \"M\", \"pid\": "
       << pid << ", \"args\": {\"sort_index\": " << pid << "}},\n";
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid
       << ", \"tid\": " << s.node << ", \"args\": {\"name\": \"node "
       << s.node << "\"}},\n";
    for (const auto& r : s.records) EmitRecord(os, pid, r);
    total += s.records.size();
    // Flight-recorder moments share the node's track so session-layer
    // context (retransmits, suspicion spans) lines up with the protocol
    // events it explains.
    for (const auto& f : s.flight) {
      os << "{\"name\": "
         << Quoted(std::string("flight ") + ToString(f.kind))
         << ", \"ph\": \"i\", \"pid\": " << pid << ", \"tid\": " << s.node
         << ", \"ts\": " << f.at
         << ", \"s\": \"t\", \"args\": {\"peer\": " << f.peer
         << ", \"a\": " << f.a << ", \"b\": " << f.b << "}},\n";
    }
  }
  os << "{\"name\": \"trace_end\", \"ph\": \"M\", \"pid\": 0, "
        "\"args\": {\"shards\": "
     << shards.size() << ", \"records\": " << total << "}}\n]}\n";
  return os.str();
}

bool WriteMergedChromeTrace(const std::string& path,
                            const std::vector<TraceShard>& shards,
                            const TraceExportOptions& opts) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    CELECT_LOG(Error) << "cannot open " << path << " for writing";
    return false;
  }
  out << ExportMergedChromeTrace(shards, opts);
  out.flush();
  if (!out) {
    CELECT_LOG(Error) << "short write to " << path;
    return false;
  }
  return true;
}

}  // namespace celect::obs
