#include "celect/obs/trace_inspect.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "celect/obs/telemetry.h"
#include "celect/util/text.h"

namespace celect::obs {

namespace {

using sim::TraceRecord;

constexpr TraceRecord::Kind kAllKinds[] = {
    TraceRecord::Kind::kSend,        TraceRecord::Kind::kDeliver,
    TraceRecord::Kind::kWakeup,      TraceRecord::Kind::kLeader,
    TraceRecord::Kind::kCrash,       TraceRecord::Kind::kRejoin,
    TraceRecord::Kind::kDrop,
    TraceRecord::Kind::kLoss,        TraceRecord::Kind::kDuplicate,
    TraceRecord::Kind::kTimerSet,    TraceRecord::Kind::kTimerFire,
    TraceRecord::Kind::kTimerCancel, TraceRecord::Kind::kPhaseBegin,
    TraceRecord::Kind::kPhaseEnd,
};

std::optional<TraceRecord::Kind> KindFromName(std::string_view name) {
  for (TraceRecord::Kind k : kAllKinds) {
    if (name == sim::ToString(k)) return k;
  }
  return std::nullopt;
}

// "doubling.3" → (kDoubling, 3); "capture1" → (kCapture1, 0).
std::optional<std::pair<PhaseId, std::int64_t>> ParsePhaseKey(
    std::string_view key) {
  const std::size_t dot = key.rfind('.');
  if (dot != std::string::npos) {
    if (auto level = ParseNumber<std::int64_t>(key.substr(dot + 1))) {
      if (auto id = PhaseFromName(key.substr(0, dot))) {
        return std::make_pair(*id, *level);
      }
    }
  }
  if (auto id = PhaseFromName(key)) return std::make_pair(*id, 0);
  return std::nullopt;
}

}  // namespace

bool IsMessageOutcome(sim::TraceRecord::Kind k) {
  return k == TraceRecord::Kind::kDeliver ||
         k == TraceRecord::Kind::kDrop || k == TraceRecord::Kind::kLoss ||
         k == TraceRecord::Kind::kDuplicate;
}

std::string SerializeRecord(const sim::TraceRecord& r) {
  std::ostringstream os;
  os << r.seq << " " << sim::ToString(r.kind) << " at=" << r.at.ticks()
     << " node=" << r.node << " peer=" << r.peer << " port=" << r.port
     << " type=" << r.type << " clock=" << r.clock << " mid=" << r.mid
     << " phase=" << PhaseKey(r.phase, r.phase_level);
  return os.str();
}

std::optional<sim::TraceRecord> ParseRecordLine(const std::string& line,
                                                std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return std::nullopt;
  };
  std::istringstream ls(line);
  std::string seq_tok, kind_tok;
  std::string at_tok, node_tok, peer_tok, port_tok, type_tok, clock_tok,
      mid_tok, phase_tok;
  if (!(ls >> seq_tok >> kind_tok >> at_tok >> node_tok >> peer_tok >>
        port_tok >> type_tok >> clock_tok >> mid_tok >> phase_tok)) {
    return fail("expected 10 tokens");
  }
  std::string rest;
  if (ls >> rest) return fail("trailing tokens");
  TraceRecord r{};
  const auto seq = ParseNumber<std::uint64_t>(seq_tok);
  if (!seq) return fail("bad seq");
  r.seq = *seq;
  const auto kind = KindFromName(kind_tok);
  if (!kind) return fail("unknown kind '" + kind_tok + "'");
  r.kind = *kind;
  const auto at = TakeField(at_tok, "at");
  const auto node = TakeField(node_tok, "node");
  const auto peer = TakeField(peer_tok, "peer");
  const auto port = TakeField(port_tok, "port");
  const auto type = TakeField(type_tok, "type");
  const auto clock = TakeField(clock_tok, "clock");
  const auto mid = TakeField(mid_tok, "mid");
  const auto phase = TakeField(phase_tok, "phase");
  if (!at || !node || !peer || !port || !type || !clock || !mid ||
      !phase) {
    return fail("malformed field");
  }
  const auto at_v = ParseNumber<std::int64_t>(*at);
  const auto node_v = ParseNumber<sim::NodeId>(*node);
  const auto peer_v = ParseNumber<sim::NodeId>(*peer);
  const auto port_v = ParseNumber<sim::Port>(*port);
  const auto type_v = ParseNumber<std::uint16_t>(*type);
  const auto clock_v = ParseNumber<std::uint64_t>(*clock);
  const auto mid_v = ParseNumber<std::uint64_t>(*mid);
  if (!at_v || !node_v || !peer_v || !port_v || !type_v || !clock_v ||
      !mid_v) {
    return fail("non-numeric or out-of-range field");
  }
  r.at = sim::Time::FromTicks(*at_v);
  r.node = *node_v;
  r.peer = *peer_v;
  r.port = *port_v;
  r.type = *type_v;
  r.clock = *clock_v;
  r.mid = *mid_v;
  const auto ph = ParsePhaseKey(*phase);
  if (!ph) return fail("unknown phase '" + std::string(*phase) + "'");
  r.phase = ph->first;
  r.phase_level = ph->second;
  return r;
}

std::string SerializeRecords(
    const std::vector<sim::TraceRecord>& records) {
  std::ostringstream os;
  for (const auto& r : records) os << SerializeRecord(r) << "\n";
  return os.str();
}

std::optional<std::vector<sim::TraceRecord>> ParseRecords(
    const std::string& text, std::string* error) {
  std::vector<sim::TraceRecord> out;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string why;
    auto r = ParseRecordLine(line, &why);
    if (!r) {
      if (error) {
        std::ostringstream os;
        os << "line " << lineno << ": " << why;
        *error = os.str();
      }
      return std::nullopt;
    }
    out.push_back(*r);
  }
  return out;
}

bool TraceFilter::Matches(const sim::TraceRecord& r) const {
  if (node && r.node != *node && r.peer != *node) return false;
  if (type && r.type != *type) return false;
  if (phase && r.phase != *phase) return false;
  if (min_ticks && r.at.ticks() < *min_ticks) return false;
  if (max_ticks && r.at.ticks() > *max_ticks) return false;
  return true;
}

std::vector<sim::TraceRecord> FilterRecords(
    const std::vector<sim::TraceRecord>& records, const TraceFilter& f) {
  std::vector<sim::TraceRecord> out;
  for (const auto& r : records) {
    if (f.Matches(r)) out.push_back(r);
  }
  return out;
}

std::optional<std::string> DiffRecords(
    const std::vector<sim::TraceRecord>& a,
    const std::vector<sim::TraceRecord>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    const std::string la = SerializeRecord(a[i]);
    const std::string lb = SerializeRecord(b[i]);
    if (la != lb) {
      std::ostringstream os;
      os << "record " << i << " differs:\n  a: " << la << "\n  b: " << lb;
      return os.str();
    }
  }
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << "traces diverge in length: a has " << a.size() << " records, b "
       << b.size() << " (first " << common << " identical)";
    return os.str();
  }
  return std::nullopt;
}

std::vector<sim::TraceRecord> CausalChain(
    const std::vector<sim::TraceRecord>& records, std::uint64_t mid) {
  std::optional<std::size_t> send;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].kind == TraceRecord::Kind::kSend &&
        records[i].mid == mid) {
      send = i;
      break;
    }
  }
  if (!send) return {};

  // Walk backwards: the event that triggered the handler a send ran in
  // is the latest deliver/wakeup/timer-fire at the same node before it;
  // across a delivery, hop to the matching send and repeat.
  std::vector<std::size_t> back{*send};
  std::size_t cur = *send;
  for (;;) {
    const sim::NodeId node = records[cur].node;
    std::optional<std::size_t> trigger;
    for (std::size_t i = cur; i-- > 0;) {
      const auto k = records[i].kind;
      if (records[i].node != node) continue;
      if (k == TraceRecord::Kind::kDeliver ||
          k == TraceRecord::Kind::kWakeup ||
          k == TraceRecord::Kind::kTimerFire) {
        trigger = i;
        break;
      }
    }
    if (!trigger) break;
    back.push_back(*trigger);
    if (records[*trigger].kind != TraceRecord::Kind::kDeliver) break;
    std::optional<std::size_t> prev_send;
    for (std::size_t i = *trigger; i-- > 0;) {
      if (records[i].kind == TraceRecord::Kind::kSend &&
          records[i].mid == records[*trigger].mid) {
        prev_send = i;
        break;
      }
    }
    if (!prev_send) break;
    back.push_back(*prev_send);
    cur = *prev_send;
  }

  std::vector<sim::TraceRecord> chain;
  for (std::size_t i = back.size(); i-- > 0;) {
    chain.push_back(records[back[i]]);
  }
  // Then every outcome of the message itself.
  for (std::size_t i = *send + 1; i < records.size(); ++i) {
    if (records[i].mid == mid && IsMessageOutcome(records[i].kind)) {
      chain.push_back(records[i]);
    }
  }
  return chain;
}

namespace {

// Validation-only JSON scanner (no tree, no numbers parsed — structure
// and string escapes only).
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : s_(text) {}

  std::optional<std::string> Validate() {
    SkipWs();
    if (!Value()) return Error();
    SkipWs();
    if (pos_ != s_.size()) {
      err_ = "trailing content";
      return Error();
    }
    return std::nullopt;
  }

 private:
  std::optional<std::string> Error() const {
    std::ostringstream os;
    os << "invalid JSON at offset " << pos_ << ": "
       << (err_.empty() ? "syntax error" : err_);
    return os.str();
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) break;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              err_ = "bad \\u escape";
              return false;
            }
          }
        } else if (!std::strchr("\"\\/bfnrt", e)) {
          err_ = "bad escape";
          return false;
        }
        ++pos_;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        err_ = "control character in string";
        return false;
      } else {
        ++pos_;
      }
    }
    err_ = "unterminated string";
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (s_[start] == '-' && pos_ == start + 1)) {
      return false;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    return true;
  }

  bool Value() {
    if (++depth_ > 256) {
      err_ = "nesting too deep";
      return false;
    }
    SkipWs();
    bool ok = false;
    if (pos_ >= s_.size()) {
      err_ = "unexpected end of input";
    } else if (s_[pos_] == '{') {
      ok = Object();
    } else if (s_[pos_] == '[') {
      ok = Array();
    } else if (s_[pos_] == '"') {
      ok = String();
    } else if (Literal("true") || Literal("false") || Literal("null")) {
      ok = true;
    } else {
      ok = Number();
    }
    --depth_;
    return ok;
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        err_ = "expected ':'";
        return false;
      }
      ++pos_;
      if (!Value()) return false;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      err_ = "expected ',' or '}'";
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!Value()) return false;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      err_ = "expected ',' or ']'";
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string err_;
};

}  // namespace

std::optional<std::string> ValidateJson(const std::string& text) {
  return JsonScanner(text).Validate();
}

}  // namespace celect::obs
