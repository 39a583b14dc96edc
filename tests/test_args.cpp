#include "common/args.hpp"

#include <gtest/gtest.h>

namespace bacp::common {
namespace {

ArgParser make_parser() {
  return ArgParser({{"trials=", "number of trials"},
                    {"policy=", "policy name"},
                    {"scale=", "scale factor"},
                    {"strict=", "boolean knob"},
                    {"verbose", "chatty output"}});
}

ArgParser parsed(std::vector<const char*> argv) {
  auto parser = make_parser();
  argv.insert(argv.begin(), "prog");
  EXPECT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  return parser;
}

TEST(ArgParser, ParsesEqualsForm) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--trials=42", "--policy=bank-aware"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_u64_or_fail("trials", 0), 42u);
  EXPECT_EQ(parser.get("policy", ""), "bank-aware");
}

TEST(ArgParser, ParsesSpaceForm) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--trials", "7"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_u64_or_fail("trials", 0), 7u);
}

TEST(ArgParser, BooleanFlag) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_TRUE(parser.has("verbose"));
  EXPECT_FALSE(parser.has("trials"));
}

TEST(ArgParser, PositionalArguments) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "mcf", "--trials=1", "art"};
  ASSERT_TRUE(parser.parse(4, argv));
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "mcf");
  EXPECT_EQ(parser.positional()[1], "art");
}

TEST(ArgParser, UnknownFlagFails) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(parser.parse(2, argv));
  EXPECT_NE(parser.error().find("bogus"), std::string::npos);
}

TEST(ArgParser, MissingValueFails) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--trials"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, ValueOnBooleanFails) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--verbose=1"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, AbsentFlagUsesFallback) {
  auto parser = parsed({});
  EXPECT_EQ(parser.get_u64_or_fail("trials", 9), 9u);
  EXPECT_DOUBLE_EQ(parser.get_double_or_fail("scale", 1.25), 1.25);
  EXPECT_TRUE(parser.get_bool_or_fail("strict", true));
}

TEST(ArgParser, StrictTypedAccess) {
  auto parser = parsed({"--trials=42", "--scale=1.5", "--strict=false"});
  EXPECT_EQ(parser.get_u64_or_fail("trials", 0), 42u);
  EXPECT_DOUBLE_EQ(parser.get_double_or_fail("scale", 0.0), 1.5);
  EXPECT_FALSE(parser.get_bool_or_fail("strict", true));
  EXPECT_EQ(parser.require_string("strict"), "false");
}

// The strict accessors exit(2) with a message naming the flag — the loud
// boundary the ingestion layer guarantees. Each malformed value is a death
// test asserting both the exit code and that the message names the flag.

using ArgParserDeath = ::testing::Test;

TEST(ArgParserDeath, TrailingGarbageNamesFlag) {
  auto parser = parsed({"--trials=10k"});
  EXPECT_EXIT(parser.get_u64_or_fail("trials", 0), ::testing::ExitedWithCode(2),
              "invalid value '10k' for --trials");
}

TEST(ArgParserDeath, NegativeUnsignedNamesFlag) {
  auto parser = parsed({"--trials=-1"});
  EXPECT_EXIT(parser.get_u64_or_fail("trials", 0), ::testing::ExitedWithCode(2),
              "--trials.*negative");
}

TEST(ArgParserDeath, OverflowIsRejectedNotSaturated) {
  auto parser = parsed({"--trials=99999999999999999999"});
  EXPECT_EXIT(parser.get_u64_or_fail("trials", 0), ::testing::ExitedWithCode(2),
              "--trials.*out of range");
}

TEST(ArgParserDeath, MalformedDoubleNamesFlag) {
  auto parser = parsed({"--scale=x1.5"});
  EXPECT_EXIT(parser.get_double_or_fail("scale", 0.0), ::testing::ExitedWithCode(2),
              "invalid value 'x1.5' for --scale");
}

TEST(ArgParserDeath, NonFiniteDoubleIsRejected) {
  auto parser = parsed({"--scale=inf"});
  EXPECT_EXIT(parser.get_double_or_fail("scale", 0.0), ::testing::ExitedWithCode(2),
              "--scale.*non-finite");
}

TEST(ArgParserDeath, MalformedBoolNamesFlag) {
  auto parser = parsed({"--strict=maybe"});
  EXPECT_EXIT(parser.get_bool_or_fail("strict", false), ::testing::ExitedWithCode(2),
              "invalid value 'maybe' for --strict");
}

TEST(ArgParserDeath, RequireMissingFlagFails) {
  auto parser = parsed({});
  EXPECT_EXIT(parser.require_string("policy"), ::testing::ExitedWithCode(2),
              "missing required flag --policy");
}

TEST(ArgParserDeath, FatalMessageIncludesUsageText) {
  auto parser = parsed({"--trials=nope"});
  EXPECT_EXIT(parser.get_u64_or_fail("trials", 0), ::testing::ExitedWithCode(2),
              "usage: prog");
}

TEST(ArgParser, HelpListsFlags) {
  const auto help = make_parser().help("prog");
  EXPECT_NE(help.find("--trials=<value>"), std::string::npos);
  EXPECT_NE(help.find("--verbose"), std::string::npos);
  EXPECT_EQ(help.find("--verbose=<value>"), std::string::npos);
}

}  // namespace
}  // namespace bacp::common
