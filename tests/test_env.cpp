#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace bacp::common {
namespace {

TEST(Env, MissingVariableUsesFallback) {
  ::unsetenv("BACP_TEST_MISSING");
  EXPECT_EQ(env_string("BACP_TEST_MISSING", "x"), "x");
}

TEST(Env, StringPassThrough) {
  ::setenv("BACP_TEST_STR", "hello", 1);
  EXPECT_EQ(env_string("BACP_TEST_STR", "d"), "hello");
  ::unsetenv("BACP_TEST_STR");
}

}  // namespace
}  // namespace bacp::common
