// JSON string escaping shared by the obs writers: the Chrome trace, the
// flight-ring dump and the RunReport. Header-only with no obs includes, so
// a writer that uses it gains no dependency on another obs component.
#pragma once

#include <cstdio>
#include <ostream>
#include <string_view>

namespace pstap::obs {

/// Write `s` as the body of a JSON string literal (no surrounding quotes):
/// quote and backslash escaped, control characters as \n, \t or \u00XX.
inline void json_escape(std::ostream& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

}  // namespace pstap::obs
