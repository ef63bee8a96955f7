// The report pipe between a multi-process cluster's supervisor and its
// child processes (examples/distributed_demo.cpp). Each child writes one
// line per state change; the supervisor parses whatever a live, dying or
// SIGKILLed child left in its pipe, so the parser trusts nothing:
//
//   "B <node> <leader>"    the child's leader belief changed
//   "D <node> <leader>"    the child declared itself leader
//   "E <node>"             the child could not bind its socket
//   "M <node> <compact>"   metrics snapshot (MetricsRegistry compact form)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "celect/obs/telemetry.h"
#include "celect/sim/types.h"

namespace celect::net {

struct Report {
  enum class Kind : char {
    kBelief = 'B',
    kDeclared = 'D',
    kBindFailed = 'E',
    kMetrics = 'M',
  };
  Kind kind = Kind::kBelief;
  std::uint32_t node = 0;
  sim::Id leader = 0;              // kBelief and kDeclared only
  obs::MetricsRegistry metrics{};  // kMetrics only

  friend bool operator==(const Report&, const Report&) = default;
};

// One report line, without the trailing '\n'.
std::string FormatReport(const Report& r);

// Parses one line (without its '\n') from a cluster of `n` nodes. The
// kind must be one of the four above, and every field it carries must be
// present and in range: node < n, leader an int64, metrics accepted by
// MetricsRegistry::ParseCompact. The line must also be exactly what
// FormatReport writes for the result, so a missing or extra field,
// trailing bytes, an unknown kind or a non-canonical number yields
// nullopt.
std::optional<Report> ParseReport(std::string_view line, std::uint32_t n);

}  // namespace celect::net
