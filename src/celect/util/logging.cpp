#include "celect/util/logging.h"

#include <cstdio>

namespace celect::detail {

LogLine::LogLine(LogLevel level, const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << (level == LogLevel::kWarn ? "WARN" : "ERROR") << " "
          << base << ":" << line << "] ";
}

LogLine::~LogLine() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
}

}  // namespace celect::detail
