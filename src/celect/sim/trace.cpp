#include "celect/sim/trace.h"

namespace celect::sim {

void Trace::Record(TraceRecord r) {
  if (!enabled_) return;
  if (records_.size() >= cap_) {
    truncated_ = true;
    ++dropped_;
    return;
  }
  r.seq = next_seq_++;
  records_.push_back(r);
}

const char* ToString(TraceRecord::Kind kind) {
  switch (kind) {
    case TraceRecord::Kind::kSend:
      return "send";
    case TraceRecord::Kind::kDeliver:
      return "recv";
    case TraceRecord::Kind::kWakeup:
      return "wake";
    case TraceRecord::Kind::kLeader:
      return "LEAD";
    case TraceRecord::Kind::kCrash:
      return "CRSH";
    case TraceRecord::Kind::kRejoin:
      return "RJON";
    case TraceRecord::Kind::kDrop:
      return "drop";
    case TraceRecord::Kind::kLoss:
      return "loss";
    case TraceRecord::Kind::kDuplicate:
      return "dupe";
    case TraceRecord::Kind::kTimerSet:
      return "tset";
    case TraceRecord::Kind::kTimerFire:
      return "fire";
    case TraceRecord::Kind::kTimerCancel:
      return "tcxl";
    case TraceRecord::Kind::kPhaseBegin:
      return "pbeg";
    case TraceRecord::Kind::kPhaseEnd:
      return "pend";
  }
  return "?";
}

}  // namespace celect::sim
