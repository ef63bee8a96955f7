#include "celect/net/report.h"

#include <charconv>
#include <system_error>
#include <utility>

namespace celect::net {

namespace {

// The whole of `text` as one decimal number of type T: no sign for
// unsigned T, no '+', no spaces, no overflow.
template <typename T>
std::optional<T> ParseWhole(std::string_view text) {
  if (text.empty()) return std::nullopt;
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::string FormatReport(const Report& r) {
  std::string out{static_cast<char>(r.kind)};
  out += ' ';
  out += std::to_string(r.node);
  switch (r.kind) {
    case Report::Kind::kBelief:
    case Report::Kind::kDeclared:
      out += ' ';
      out += std::to_string(r.leader);
      break;
    case Report::Kind::kMetrics:
      out += ' ';
      out += r.metrics.SerializeCompact();
      break;
    case Report::Kind::kBindFailed:
      break;
  }
  return out;
}

std::optional<Report> ParseReport(std::string_view line, std::uint32_t n) {
  if (line.size() < 3 || line[1] != ' ') return std::nullopt;
  Report r;
  switch (line[0]) {
    case 'B':
      r.kind = Report::Kind::kBelief;
      break;
    case 'D':
      r.kind = Report::Kind::kDeclared;
      break;
    case 'E':
      r.kind = Report::Kind::kBindFailed;
      break;
    case 'M':
      r.kind = Report::Kind::kMetrics;
      break;
    default:
      return std::nullopt;
  }
  const std::string_view rest = line.substr(2);
  const std::size_t space = rest.find(' ');
  const auto node = ParseWhole<std::uint32_t>(rest.substr(0, space));
  if (!node || *node >= n) return std::nullopt;
  r.node = *node;
  const std::string_view field =
      space == std::string_view::npos ? std::string_view()
                                      : rest.substr(space + 1);
  switch (r.kind) {
    case Report::Kind::kBelief:
    case Report::Kind::kDeclared: {
      const auto leader = ParseWhole<sim::Id>(field);
      if (!leader) return std::nullopt;
      r.leader = *leader;
      break;
    }
    case Report::Kind::kMetrics: {
      auto metrics = obs::MetricsRegistry::ParseCompact(std::string(field));
      if (!metrics) return std::nullopt;
      r.metrics = std::move(*metrics);
      break;
    }
    case Report::Kind::kBindFailed:
      break;
  }
  // Only the spelling FormatReport writes is accepted: this rejects a
  // field the kind does not carry, extra spaces, trailing bytes, leading
  // zeros and any metrics text that is not the canonical compact form.
  if (FormatReport(r) != line) return std::nullopt;
  return r;
}

}  // namespace celect::net
