#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace bacp::common {
namespace {

/// Runs `body` with stderr captured and returns what was written — the
/// malformed-env contract is "fall back loudly", so tests assert both the
/// returned default and the warning that names the variable.
template <typename Body>
std::string captured_stderr(Body body) {
  ::testing::internal::CaptureStderr();
  body();
  return ::testing::internal::GetCapturedStderr();
}

TEST(Env, MissingVariableUsesFallback) {
  ::unsetenv("BACP_TEST_MISSING");
  EXPECT_EQ(env_u64("BACP_TEST_MISSING", 42), 42u);
  EXPECT_EQ(env_string("BACP_TEST_MISSING", "x"), "x");
}

TEST(Env, ParsesValidU64) {
  ::setenv("BACP_TEST_U64", "12345", 1);
  EXPECT_EQ(env_u64("BACP_TEST_U64", 0), 12345u);
  ::unsetenv("BACP_TEST_U64");
}

TEST(Env, MalformedU64WarnsAndFallsBack) {
  ::setenv("BACP_TEST_BAD", "12abc", 1);
  std::uint64_t value = 0;
  const auto warning = captured_stderr([&] { value = env_u64("BACP_TEST_BAD", 9); });
  EXPECT_EQ(value, 9u);
  EXPECT_NE(warning.find("BACP_TEST_BAD"), std::string::npos) << warning;
  EXPECT_NE(warning.find("12abc"), std::string::npos) << warning;
  ::unsetenv("BACP_TEST_BAD");
}

TEST(Env, EmptyVariableIsSilentFallback) {
  // An empty variable is the conventional way to unset a knob in a wrapper
  // script; it must fall back without noise.
  ::setenv("BACP_TEST_EMPTY", "", 1);
  const auto warning =
      captured_stderr([] { EXPECT_EQ(env_u64("BACP_TEST_EMPTY", 9), 9u); });
  EXPECT_TRUE(warning.empty()) << warning;
  ::unsetenv("BACP_TEST_EMPTY");
}

TEST(Env, NegativeU64WarnsAndFallsBack) {
  // strtoull would have wrapped "-1" to 18446744073709551615 — the exact
  // silent-fallback bug this layer eradicates.
  ::setenv("BACP_TEST_NEG", "-1", 1);
  std::uint64_t value = 0;
  const auto warning = captured_stderr([&] { value = env_u64("BACP_TEST_NEG", 7); });
  EXPECT_EQ(value, 7u);
  EXPECT_NE(warning.find("BACP_TEST_NEG"), std::string::npos) << warning;
  EXPECT_NE(warning.find("negative"), std::string::npos) << warning;
  ::unsetenv("BACP_TEST_NEG");
}

TEST(Env, OverflowU64WarnsAndFallsBack) {
  ::setenv("BACP_TEST_OVF", "99999999999999999999", 1);
  std::uint64_t value = 0;
  const auto warning = captured_stderr([&] { value = env_u64("BACP_TEST_OVF", 5); });
  EXPECT_EQ(value, 5u);
  EXPECT_NE(warning.find("out of range"), std::string::npos) << warning;
  ::unsetenv("BACP_TEST_OVF");
}

TEST(Env, StringPassThrough) {
  ::setenv("BACP_TEST_STR", "hello", 1);
  EXPECT_EQ(env_string("BACP_TEST_STR", "d"), "hello");
  ::unsetenv("BACP_TEST_STR");
}

}  // namespace
}  // namespace bacp::common
