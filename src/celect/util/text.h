// Strict parsing and quoting for the repo's text formats: trace and
// shard dumps, metrics lines, cluster reports, explorer schedules and
// the JSON documents the benches and the trace exporter write.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace celect {

// The whole of `text` as one decimal number of type T, or nullopt: no
// whitespace, no sign at all for an unsigned T (a signed T takes one
// leading '+' or '-'), and nothing outside T's range.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  if constexpr (std::is_signed_v<T>) {
    if (text.starts_with('+')) {
      text.remove_prefix(1);
      if (text.starts_with('-')) return std::nullopt;
    }
  }
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

// "key=value" → value, checking the key; nullopt on mismatch.
std::optional<std::string_view> TakeField(std::string_view token,
                                          std::string_view key);

// `s` as a JSON string literal: quotes, backslashes and control bytes
// escaped; other bytes (UTF-8 included) pass through.
std::string JsonString(std::string_view s);

}  // namespace celect
