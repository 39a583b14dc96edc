#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bacp::common {

/// Result of strictly parsing one external input token (a flag value, an
/// environment variable, a config field). Either a value or a human-readable
/// reason — never a silently repaired default. The text boundaries
/// (common/args, common/env) route through the parse_* helpers below so
/// the whole system shares one notion of "valid":
///   - empty input is an error, not zero;
///   - trailing garbage is an error ("10k" is not 10);
///   - "-1" is an error for unsigned types, not 2^64-1 (strtoull wraps;
///     std::from_chars does not, and we reject the sign explicitly);
///   - out-of-range values are an error, not ULLONG_MAX/HUGE_VAL saturation;
///   - non-finite doubles ("inf", "nan") are rejected — no config knob in
///     this system meaningfully accepts them.
template <typename T>
struct ParseResult {
  std::optional<T> value;
  std::string error;  ///< set iff !ok(); reason only, caller names the source

  bool ok() const { return value.has_value(); }
  explicit operator bool() const { return ok(); }
  const T& operator*() const { return *value; }
};

ParseResult<std::uint64_t> parse_u64(std::string_view text);
ParseResult<double> parse_double(std::string_view text);
/// Accepts 1/0, true/false, yes/no, on/off (lowercase).
ParseResult<bool> parse_bool(std::string_view text);

}  // namespace bacp::common
