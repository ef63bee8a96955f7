#include "celect/obs/phase.h"

namespace celect::obs {

const char* PhaseName(PhaseId id) {
  switch (id) {
    case PhaseId::kNone:
      return "none";
    case PhaseId::kWakeup:
      return "wakeup";
    case PhaseId::kCapture1:
      return "capture1";
    case PhaseId::kCapture2:
      return "capture2";
    case PhaseId::kDoubling:
      return "doubling";
    case PhaseId::kBroadcast:
      return "broadcast";
    case PhaseId::kRecovery:
      return "recovery";
    case PhaseId::kResolve:
      return "resolve";
  }
  return "none";
}

std::string PhaseKey(PhaseId id, std::int64_t level) {
  std::string key = PhaseName(id);
  if (level != 0) {
    key += '.';
    key += std::to_string(level);
  }
  return key;
}

std::optional<PhaseId> PhaseFromName(std::string_view name) {
  for (PhaseId id : {PhaseId::kNone, PhaseId::kWakeup, PhaseId::kCapture1,
                     PhaseId::kCapture2, PhaseId::kDoubling,
                     PhaseId::kBroadcast, PhaseId::kRecovery,
                     PhaseId::kResolve}) {
    if (name == PhaseName(id)) return id;
  }
  return std::nullopt;
}

}  // namespace celect::obs
