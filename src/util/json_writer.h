// The one text encoder for histk's machine-readable output: Report JSON,
// histkd response envelopes and stats, BENCH_*.json records, and the
// histk-distribution / histk-tiling-histogram v1 text formats all append
// through these functions, so a change to string escaping or number
// formatting is a change to this file alone. (WriteSnapshotJson's
// pretty-printed 6-digit telemetry dump is the one exception.)
//
// Encoding decisions:
//   * strings: '"' and '\\' are backslash-escaped, '\n' and '\t' use
//     their short escapes, every other byte below 0x20 becomes \u00XX,
//     and all other bytes (UTF-8 included) are copied verbatim;
//   * doubles: printf "%.*g" at max_digits10 (17 significant digits),
//     which round-trips every finite double exactly;
//   * JSON has no inf/nan tokens, so AppendJsonDouble writes them as
//     null. The histk-* text formats only carry finite values and use
//     AppendRoundTripDouble directly.
#ifndef HISTK_UTIL_JSON_WRITER_H_
#define HISTK_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace histk {

/// Appends `s` as a JSON string literal (quotes included).
void AppendJsonString(std::string& out, std::string_view s);

/// Appends `value` with enough digits to round-trip exactly.
void AppendRoundTripDouble(std::string& out, double value);

/// AppendRoundTripDouble for finite values, `null` otherwise.
void AppendJsonDouble(std::string& out, double value);

/// Appends a decimal integer.
void AppendJsonInt(std::string& out, int64_t value);

/// Member shorthands for hand-rolled objects: append `prefix`, the literal
/// text up to the value (e.g. `, "k": `), then the encoded value.
inline void AppendStringMember(std::string& out, std::string_view prefix,
                               std::string_view value) {
  out += prefix;
  AppendJsonString(out, value);
}
inline void AppendDoubleMember(std::string& out, std::string_view prefix,
                               double value) {
  out += prefix;
  AppendJsonDouble(out, value);
}
inline void AppendIntMember(std::string& out, std::string_view prefix,
                            int64_t value) {
  out += prefix;
  AppendJsonInt(out, value);
}
inline void AppendBoolMember(std::string& out, std::string_view prefix,
                             bool value) {
  out += prefix;
  out += value ? "true" : "false";
}

}  // namespace histk

#endif  // HISTK_UTIL_JSON_WRITER_H_
