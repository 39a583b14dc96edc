#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace bacp::common {
namespace {

// ---------------------------------------------------------------------------
// Table-driven coverage of the strict scalar parsers: the exact set of
// failure modes the ingestion layer promises to catch (empty input, trailing
// garbage, sign wraparound, overflow saturation, non-finite doubles), plus
// the valid forms that must keep parsing.
// ---------------------------------------------------------------------------

struct U64Case {
  const char* text;
  bool ok;
  std::uint64_t value;          // when ok
  const char* error_contains;   // when !ok
};

TEST(ParseU64, Table) {
  const std::vector<U64Case> cases = {
      {"0", true, 0, ""},
      {"42", true, 42, ""},
      {"18446744073709551615", true, std::numeric_limits<std::uint64_t>::max(), ""},
      {"007", true, 7, ""},  // leading zeros are harmless decimal
      {"", false, 0, "empty"},
      {"-1", false, 0, "negative"},  // strtoull would wrap to 2^64-1
      {"-99999999999999999999", false, 0, "negative"},
      {"+1", false, 0, "leading '+'"},
      {"18446744073709551616", false, 0, "out of range"},  // 2^64
      {"99999999999999999999999", false, 0, "out of range"},
      {"10k", false, 0, "trailing characters 'k'"},
      {"1e3", false, 0, "trailing"},  // scientific notation is not an integer
      {"12 ", false, 0, "trailing"},
      {" 12", false, 0, "not a number"},
      {"0x10", false, 0, "trailing"},
      {"abc", false, 0, "not a number"},
      {"12.5", false, 0, "trailing"},
  };
  for (const auto& c : cases) {
    const auto result = parse_u64(c.text);
    EXPECT_EQ(result.ok(), c.ok) << "input: '" << c.text << "'";
    if (c.ok && result.ok()) {
      EXPECT_EQ(*result, c.value) << "input: '" << c.text << "'";
    } else if (!c.ok && !result.ok()) {
      EXPECT_NE(result.error.find(c.error_contains), std::string::npos)
          << "input: '" << c.text << "' error: " << result.error;
    }
  }
}

struct DoubleCase {
  const char* text;
  bool ok;
  double value;
  const char* error_contains;
};

TEST(ParseDouble, Table) {
  const std::vector<DoubleCase> cases = {
      {"0", true, 0.0, ""},
      {"1.5", true, 1.5, ""},
      {"-2.75", true, -2.75, ""},
      {"1e3", true, 1000.0, ""},
      {"2.5e-2", true, 0.025, ""},
      {"", false, 0, "empty"},
      {"x1.5", false, 0, "not a number"},
      {"1.5x", false, 0, "trailing"},
      {"1.5 ", false, 0, "trailing"},
      {"+1.5", false, 0, "leading '+'"},
      {"1e999", false, 0, "out of range"},
      {"inf", false, 0, "non-finite"},
      {"-inf", false, 0, "non-finite"},
      {"nan", false, 0, "non-finite"},
  };
  for (const auto& c : cases) {
    const auto result = parse_double(c.text);
    EXPECT_EQ(result.ok(), c.ok) << "input: '" << c.text << "'";
    if (c.ok && result.ok()) {
      EXPECT_DOUBLE_EQ(*result, c.value) << "input: '" << c.text << "'";
    } else if (!c.ok && !result.ok()) {
      EXPECT_NE(result.error.find(c.error_contains), std::string::npos)
          << "input: '" << c.text << "' error: " << result.error;
    }
  }
}

TEST(ParseBool, Table) {
  for (const char* text : {"1", "true", "yes", "on"}) {
    const auto result = parse_bool(text);
    ASSERT_TRUE(result.ok()) << text;
    EXPECT_TRUE(*result) << text;
  }
  for (const char* text : {"0", "false", "no", "off"}) {
    const auto result = parse_bool(text);
    ASSERT_TRUE(result.ok()) << text;
    EXPECT_FALSE(*result) << text;
  }
  for (const char* text : {"", "maybe", "TRUE", "2", "y", "truex"}) {
    EXPECT_FALSE(parse_bool(text).ok()) << text;
  }
}

}  // namespace
}  // namespace bacp::common
