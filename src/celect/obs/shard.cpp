#include "celect/obs/shard.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "celect/obs/trace_inspect.h"
#include "celect/util/text.h"

namespace celect::obs {

namespace {

constexpr FlightKind kAllFlightKinds[] = {
    FlightKind::kSessionStart, FlightKind::kEstablished,
    FlightKind::kEpochAdopt,   FlightKind::kRetransmit,
    FlightKind::kHelloRetry,   FlightKind::kSuspectBegin,
    FlightKind::kSuspectEnd,   FlightKind::kWindowStall,
    FlightKind::kResetSent,    FlightKind::kResetReceived,
    FlightKind::kVersionMismatch,
};

// A record's clock is meaningful (ticked by its node) on these kinds;
// the rest merely snapshot the node's current clock.
bool IsClocked(sim::TraceRecord::Kind k) {
  using Kind = sim::TraceRecord::Kind;
  return k == Kind::kSend || k == Kind::kDeliver || k == Kind::kWakeup ||
         k == Kind::kTimerFire;
}

}  // namespace

const char* ToString(FlightKind k) {
  switch (k) {
    case FlightKind::kSessionStart: return "session_start";
    case FlightKind::kEstablished: return "established";
    case FlightKind::kEpochAdopt: return "epoch_adopt";
    case FlightKind::kRetransmit: return "retransmit";
    case FlightKind::kHelloRetry: return "hello_retry";
    case FlightKind::kSuspectBegin: return "suspect_begin";
    case FlightKind::kSuspectEnd: return "suspect_end";
    case FlightKind::kWindowStall: return "window_stall";
    case FlightKind::kResetSent: return "reset_sent";
    case FlightKind::kResetReceived: return "reset_received";
    case FlightKind::kVersionMismatch: return "version_mismatch";
  }
  return "unknown";
}

std::optional<FlightKind> FlightKindFromName(std::string_view name) {
  for (FlightKind k : kAllFlightKinds) {
    if (name == ToString(k)) return k;
  }
  return std::nullopt;
}

// --- FlightRecorder -------------------------------------------------

FlightRecorder::FlightRecorder(std::size_t cap) : cap_(cap < 1 ? 1 : cap) {}

void FlightRecorder::Note(std::uint64_t at, std::uint32_t peer,
                          FlightKind kind, std::uint64_t a,
                          std::uint64_t b) {
  const FlightEvent e{at, peer, kind, a, b};
  if (ring_.size() < cap_) {
    ring_.push_back(e);
  } else {
    ring_[seen_ % cap_] = e;
  }
  ++seen_;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  const std::uint64_t first = dropped();
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(first + i) % cap_]);
  }
  return out;
}

// --- shard serialization --------------------------------------------

std::string SerializeShard(const TraceShard& shard) {
  std::ostringstream os;
  os << "#shard v1 node=" << shard.node << " epoch=" << shard.epoch
     << " complete=" << (shard.complete ? 1 : 0)
     << " dropped=" << shard.dropped << " label=" << shard.label << "\n";
  os << "#metrics " << shard.metrics.SerializeCompact() << "\n";
  for (const FlightEvent& f : shard.flight) {
    os << "#flight at=" << f.at << " peer=" << f.peer
       << " kind=" << ToString(f.kind) << " a=" << f.a << " b=" << f.b
       << "\n";
  }
  for (const auto& r : shard.records) os << SerializeRecord(r) << "\n";
  os << "#end shard\n";
  return os.str();
}

std::optional<std::vector<TraceShard>> ParseShards(const std::string& text,
                                                   std::string* error) {
  std::vector<TraceShard> out;
  std::optional<TraceShard> cur;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  const auto fail = [&](const std::string& why) {
    if (error) {
      std::ostringstream os;
      os << "line " << lineno << ": " << why;
      *error = os.str();
    }
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line.rfind("#shard ", 0) == 0) {
      if (cur) return fail("shard not terminated before next '#shard'");
      std::istringstream hs(line);
      std::string tag, version, node_tok, epoch_tok, complete_tok,
          dropped_tok;
      if (!(hs >> tag >> version >> node_tok >> epoch_tok >> complete_tok >>
            dropped_tok)) {
        return fail("malformed shard header");
      }
      if (version != "v1") return fail("unknown shard version");
      const auto node = TakeField(node_tok, "node");
      const auto epoch = TakeField(epoch_tok, "epoch");
      const auto complete = TakeField(complete_tok, "complete");
      const auto dropped = TakeField(dropped_tok, "dropped");
      if (!node || !epoch || !complete || !dropped) {
        return fail("malformed shard header field");
      }
      const auto node_v = ParseNumber<sim::NodeId>(*node);
      const auto epoch_v = ParseNumber<std::uint64_t>(*epoch);
      const auto complete_v = ParseNumber<std::uint64_t>(*complete);
      const auto dropped_v = ParseNumber<std::uint64_t>(*dropped);
      if (!node_v || !epoch_v || !complete_v || *complete_v > 1 ||
          !dropped_v) {
        return fail("non-numeric shard header field");
      }
      const std::size_t label_pos = line.find(" label=");
      if (label_pos == std::string::npos) {
        return fail("shard header missing label");
      }
      TraceShard s;
      s.node = *node_v;
      s.epoch = *epoch_v;
      s.complete = *complete_v == 1;
      s.dropped = *dropped_v;
      s.label = line.substr(label_pos + 7);
      cur = std::move(s);
      continue;
    }
    if (!cur) return fail("content outside a '#shard' block");
    if (line.rfind("#metrics ", 0) == 0) {
      auto reg = MetricsRegistry::ParseCompact(line.substr(9));
      if (!reg) return fail("malformed metrics line");
      cur->metrics = std::move(*reg);
      continue;
    }
    if (line.rfind("#flight ", 0) == 0) {
      std::istringstream fs(line);
      std::string tag, at_tok, peer_tok, kind_tok, a_tok, b_tok;
      if (!(fs >> tag >> at_tok >> peer_tok >> kind_tok >> a_tok >>
            b_tok)) {
        return fail("malformed flight line");
      }
      const auto at = TakeField(at_tok, "at");
      const auto peer = TakeField(peer_tok, "peer");
      const auto kind = TakeField(kind_tok, "kind");
      const auto a = TakeField(a_tok, "a");
      const auto b = TakeField(b_tok, "b");
      if (!at || !peer || !kind || !a || !b) {
        return fail("malformed flight field");
      }
      const auto at_v = ParseNumber<std::uint64_t>(*at);
      const auto peer_v = ParseNumber<std::uint32_t>(*peer);
      const auto kind_v = FlightKindFromName(*kind);
      const auto a_v = ParseNumber<std::uint64_t>(*a);
      const auto b_v = ParseNumber<std::uint64_t>(*b);
      if (!at_v || !peer_v || !kind_v || !a_v || !b_v) {
        return fail("bad flight field value");
      }
      cur->flight.push_back(FlightEvent{*at_v, *peer_v, *kind_v, *a_v, *b_v});
      continue;
    }
    if (line == "#end shard") {
      out.push_back(std::move(*cur));
      cur.reset();
      continue;
    }
    std::string why;
    auto r = ParseRecordLine(line, &why);
    if (!r) return fail(why);
    cur->records.push_back(*r);
  }
  if (cur) return fail("unterminated shard at end of input");
  return out;
}

// --- ShardReducer ---------------------------------------------------

namespace {

// Total order so the merged output is independent of arrival order:
// (node, epoch) first, then "most complete wins" keys, then the full
// serialized form as the ultimate tie-break.
bool ShardLess(const TraceShard& a, const TraceShard& b) {
  if (a.node != b.node) return a.node < b.node;
  if (a.epoch != b.epoch) return a.epoch < b.epoch;
  if (a.complete != b.complete) return !a.complete;
  if (a.records.size() != b.records.size()) {
    return a.records.size() < b.records.size();
  }
  if (a.flight.size() != b.flight.size()) {
    return a.flight.size() < b.flight.size();
  }
  return SerializeShard(a) < SerializeShard(b);
}

}  // namespace

void ShardReducer::Add(TraceShard shard) {
  shards_.push_back(std::move(shard));
  ++added_;
  sorted_ = false;
}

const std::vector<TraceShard>& ShardReducer::Merged() const {
  if (!sorted_) {
    std::sort(shards_.begin(), shards_.end(), ShardLess);
    // Duplicate flushes of one incarnation: keep the most complete
    // (greatest in ShardLess order), which a later flush strictly is.
    std::vector<TraceShard> out;
    for (auto& s : shards_) {
      if (!out.empty() && out.back().node == s.node &&
          out.back().epoch == s.epoch) {
        out.back() = std::move(s);
      } else {
        out.push_back(std::move(s));
      }
    }
    shards_ = std::move(out);
    sorted_ = true;
  }
  return shards_;
}

std::string ShardReducer::SerializeMerged() const {
  std::ostringstream os;
  for (const TraceShard& s : Merged()) os << SerializeShard(s);
  return os.str();
}

std::vector<TraceShard> ShardsFromRecords(
    const std::vector<sim::TraceRecord>& records) {
  std::map<sim::NodeId, TraceShard> by_node;
  for (const sim::TraceRecord& r : records) {
    TraceShard& s = by_node[r.node];
    s.node = r.node;
    s.complete = true;
    s.records.push_back(r);
  }
  std::vector<TraceShard> out;
  out.reserve(by_node.size());
  for (auto& [node, s] : by_node) out.push_back(std::move(s));
  return out;
}

// --- CheckShards ----------------------------------------------------

std::vector<std::string> CheckShards(const std::vector<TraceShard>& shards,
                                     const ShardCheckOptions& opts) {
  using sim::TraceRecord;
  std::vector<std::string> problems;
  const auto problem = [&](std::size_t si, const TraceShard& shard,
                           const std::string& where,
                           const std::string& why) {
    if (problems.size() >= 50) return;  // enough to act on
    std::ostringstream os;
    os << "shard " << si << " (node " << shard.node << " epoch "
       << shard.epoch << ") " << where << ": " << why;
    problems.push_back(os.str());
  };

  // Nodes with an incomplete shard: their unflushed tail is the one
  // legitimate source of outcomes whose send no shard contains.
  std::set<sim::NodeId> incomplete_nodes;
  for (const TraceShard& s : shards) {
    if (!s.complete) incomplete_nodes.insert(s.node);
  }

  struct SendRef {
    std::size_t shard;
    std::size_t idx;  // position within the sender's shard
    std::uint64_t clock;
  };
  std::unordered_map<std::uint64_t, SendRef> send_of;

  // Pass 1: per-shard clock discipline + the global send index. Clocks
  // are per incarnation — a restarted node's shard starts over at 0.
  for (std::size_t si = 0; si < shards.size(); ++si) {
    const TraceShard& shard = shards[si];
    std::uint64_t last_clock = 0;
    std::uint64_t last_ticked = 0;
    bool have_clock = false;
    bool have_ticked = false;
    for (std::size_t i = 0; i < shard.records.size(); ++i) {
      const auto& r = shard.records[i];
      const std::string where = "record " + std::to_string(i);
      if (r.node != shard.node) {
        problem(si, shard, where, "record from a foreign node");
      }
      if (r.kind == TraceRecord::Kind::kSend) {
        if (r.mid == 0) {
          problem(si, shard, where, "send without a mid");
        } else if (!send_of.emplace(r.mid, SendRef{si, i, r.clock})
                        .second) {
          problem(si, shard, where, "mid minted twice across shards");
        }
      }
      if (have_clock && r.clock < last_clock) {
        problem(si, shard, where, "node clock went backwards");
      }
      last_clock = r.clock;
      have_clock = true;
      if (IsClocked(r.kind)) {
        if (r.clock == 0) {
          problem(si, shard, where, "clocked event with clock 0");
        }
        if (have_ticked && r.clock <= last_ticked) {
          problem(si, shard, where,
                  "clocked event did not advance the node clock");
        }
        last_ticked = r.clock;
        have_ticked = true;
      }
    }
  }

  // Pass 2: every message outcome pairs with a send; deliveries also
  // get the cross-shard join and per-session FIFO. A session is a
  // (sender incarnation, receiver incarnation) pair; the reliable layer
  // promises send-order delivery within it. Outcomes sit on the
  // receiver's shard with the sender as peer.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> fifo_last;
  for (std::size_t si = 0; si < shards.size(); ++si) {
    const TraceShard& shard = shards[si];
    for (std::size_t i = 0; i < shard.records.size(); ++i) {
      const auto& r = shard.records[i];
      if (!IsMessageOutcome(r.kind)) continue;
      const std::string where = "record " + std::to_string(i);
      const std::string kind = sim::ToString(r.kind);
      if (r.mid == 0) {
        problem(si, shard, where, kind + " without a mid");
        continue;
      }
      const auto it = send_of.find(r.mid);
      if (it == send_of.end()) {
        if (incomplete_nodes.count(r.peer) == 0) {
          problem(si, shard, where,
                  kind + " with no matching send in any shard");
        }
        continue;
      }
      if (r.kind != TraceRecord::Kind::kDeliver) continue;
      const SendRef& s = it->second;
      if (r.clock <= s.clock) {
        problem(si, shard, where,
                "delivery clock does not exceed the send clock");
      }
      if (opts.expect_fifo) {
        const auto key = std::make_pair(s.shard, si);
        auto [fit, fresh] = fifo_last.try_emplace(key, s.idx);
        if (!fresh) {
          if (s.idx <= fit->second) {
            problem(si, shard, where,
                    "per-session FIFO violated (delivery overtook an "
                    "earlier send)");
          }
          fit->second = s.idx;
        }
      }
    }
  }
  return problems;
}

}  // namespace celect::obs
