#include "util/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace histk {

void AppendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  size_t verbatim = 0;  // start of the pending run of bytes copied as-is
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + verbatim, i - verbatim);
    verbatim = i + 1;
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
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.data() + verbatim, s.size() - verbatim);
  out.push_back('"');
}

void AppendRoundTripDouble(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*g",
                std::numeric_limits<double>::max_digits10, value);
  out += buf;
}

void AppendJsonDouble(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  AppendRoundTripDouble(out, value);
}

void AppendJsonInt(std::string& out, int64_t value) {
  char buf[24];
  const std::to_chars_result end = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, end.ptr);
}

}  // namespace histk
