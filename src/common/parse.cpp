#include "common/parse.hpp"

#include <charconv>
#include <cmath>

namespace bacp::common {

namespace {

template <typename T>
ParseResult<T> fail(std::string message) {
  ParseResult<T> result;
  result.error = std::move(message);
  return result;
}

std::string quoted_tail(std::string_view tail) {
  return "trailing characters '" + std::string(tail) + "'";
}

}  // namespace

ParseResult<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return fail<std::uint64_t>("empty value");
  // std::strtoull silently negates "-1" into 2^64-1; std::from_chars
  // rejects the sign for unsigned types, but we name the failure mode.
  if (text.front() == '-') return fail<std::uint64_t>("negative value not allowed");
  if (text.front() == '+') return fail<std::uint64_t>("leading '+' not allowed");
  std::uint64_t value = 0;
  const auto result = std::from_chars(text.data(), text.data() + text.size(), value, 10);
  if (result.ec == std::errc::result_out_of_range) {
    return fail<std::uint64_t>("value out of range for a 64-bit unsigned integer");
  }
  if (result.ec != std::errc()) return fail<std::uint64_t>("not a number");
  if (result.ptr != text.data() + text.size()) {
    return fail<std::uint64_t>(quoted_tail(text.substr(
        static_cast<std::size_t>(result.ptr - text.data()))));
  }
  ParseResult<std::uint64_t> out;
  out.value = value;
  return out;
}

ParseResult<double> parse_double(std::string_view text) {
  if (text.empty()) return fail<double>("empty value");
  if (text.front() == '+') return fail<double>("leading '+' not allowed");
  double value = 0.0;
  const auto result = std::from_chars(text.data(), text.data() + text.size(), value);
  if (result.ec == std::errc::result_out_of_range) {
    return fail<double>("value out of range for a double");
  }
  if (result.ec != std::errc()) return fail<double>("not a number");
  if (result.ptr != text.data() + text.size()) {
    return fail<double>(quoted_tail(text.substr(
        static_cast<std::size_t>(result.ptr - text.data()))));
  }
  if (!std::isfinite(value)) return fail<double>("non-finite value not allowed");
  ParseResult<double> out;
  out.value = value;
  return out;
}

ParseResult<bool> parse_bool(std::string_view text) {
  if (text.empty()) return fail<bool>("empty value");
  ParseResult<bool> out;
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    out.value = true;
  } else if (text == "0" || text == "false" || text == "no" || text == "off") {
    out.value = false;
  } else {
    return fail<bool>("not a boolean (use true/false, yes/no, on/off, 1/0)");
  }
  return out;
}

}  // namespace bacp::common
