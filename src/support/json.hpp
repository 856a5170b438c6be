// JSON string escaping, shared by the telemetry lines and the trace files.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace care {

/// Append `s` to `out` escaped for the inside of a JSON string. Every
/// control character is escaped (\n, \t and \r by name, the rest as
/// \u00XX), so a record never spans lines.
inline void appendJsonEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\t': out += "\\t"; break;
    case '\r': out += "\\r"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char u[8];
        std::snprintf(u, sizeof(u), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += u;
      } else {
        out += c;
      }
      break;
    }
  }
}

} // namespace care
