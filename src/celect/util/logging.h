// Minimal logging: warnings and errors, always printed to stderr with
// their source location. Nothing below Warn is logged, so tests and
// benches stay quiet unless something needs a reader's attention.
#pragma once

#include <sstream>

namespace celect {

enum class LogLevel { kWarn, kError };

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line);
  ~LogLine();
  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace celect

#define CELECT_LOG(level)                                      \
  ::celect::detail::LogLine(::celect::LogLevel::k##level,      \
                            __FILE__, __LINE__)
