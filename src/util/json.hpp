// The one JSON string and number writer behind every document the library
// and its benches emit. Strings escape '"' and '\\' with a backslash,
// newline/CR/tab with their short forms and every other byte below 0x20
// as \u00XX; all other bytes (UTF-8 included) pass through. Numbers
// render as "%.9g".
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace adarnet::util::json {

/// `s` escaped for use inside a JSON string literal (no quotes).
inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `v` as a JSON number with nine significant digits.
inline std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace adarnet::util::json
