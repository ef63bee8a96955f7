#include "celect/util/text.h"

#include <cstdio>

namespace celect {

std::optional<std::string_view> TakeField(std::string_view token,
                                          std::string_view key) {
  if (token.size() <= key.size() || token.substr(0, key.size()) != key ||
      token[key.size()] != '=') {
    return std::nullopt;
  }
  return token.substr(key.size() + 1);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace celect
