#pragma once
// Minimal JSON string escaping shared by the telemetry emitters
// (trace files, status --json). Not a JSON library — the emitters
// build their documents by hand so the output stays byte-deterministic.

#include <cstdio>
#include <string>
#include <string_view>

namespace ftnav::obs {

inline void json_escape_into(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
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
}

inline std::string json_escaped(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  json_escape_into(out, text);
  return out;
}

}  // namespace ftnav::obs
