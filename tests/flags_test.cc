#include "src/util/flags.h"

#include <gtest/gtest.h>

namespace crius {
namespace {

struct Parsed {
  std::string s = "default";
  int64_t i = 7;
  double d = 1.5;
  bool b = false;
};

bool ParseInto(Parsed& p, std::vector<const char*> args) {
  FlagSet flags("test", "test flags");
  flags.String("str", &p.s, "a string");
  flags.Int("int", &p.i, "an int");
  flags.Double("dbl", &p.d, "a double");
  flags.Bool("flag", &p.b, "a bool");
  args.insert(args.begin(), "test");
  return flags.Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, DefaultsSurviveEmptyArgs) {
  Parsed p;
  EXPECT_TRUE(ParseInto(p, {}));
  EXPECT_EQ(p.s, "default");
  EXPECT_EQ(p.i, 7);
  EXPECT_DOUBLE_EQ(p.d, 1.5);
  EXPECT_FALSE(p.b);
}

TEST(FlagsTest, SpaceSeparatedValues) {
  Parsed p;
  EXPECT_TRUE(ParseInto(p, {"--str", "hello", "--int", "42", "--dbl", "2.25"}));
  EXPECT_EQ(p.s, "hello");
  EXPECT_EQ(p.i, 42);
  EXPECT_DOUBLE_EQ(p.d, 2.25);
}

TEST(FlagsTest, EqualsSeparatedValues) {
  Parsed p;
  EXPECT_TRUE(ParseInto(p, {"--str=x", "--int=-3", "--dbl=0.5", "--flag=true"}));
  EXPECT_EQ(p.s, "x");
  EXPECT_EQ(p.i, -3);
  EXPECT_DOUBLE_EQ(p.d, 0.5);
  EXPECT_TRUE(p.b);
}

TEST(FlagsTest, BareBoolEnables) {
  Parsed p;
  EXPECT_TRUE(ParseInto(p, {"--flag"}));
  EXPECT_TRUE(p.b);
}

TEST(FlagsTest, BoolFalseForms) {
  Parsed p;
  p.b = true;
  EXPECT_TRUE(ParseInto(p, {"--flag=false"}));
  EXPECT_FALSE(p.b);
  p.b = true;
  EXPECT_TRUE(ParseInto(p, {"--flag=0"}));
  EXPECT_FALSE(p.b);
}

TEST(FlagsTest, UnknownFlagFails) {
  Parsed p;
  EXPECT_FALSE(ParseInto(p, {"--nope", "1"}));
}

TEST(FlagsTest, BadValuesFail) {
  Parsed p;
  EXPECT_FALSE(ParseInto(p, {"--int", "abc"}));
  EXPECT_FALSE(ParseInto(p, {"--int", "1.5"}));
  EXPECT_FALSE(ParseInto(p, {"--dbl", "x"}));
  EXPECT_FALSE(ParseInto(p, {"--flag=maybe"}));
}

TEST(FlagsTest, MissingValueFails) {
  Parsed p;
  EXPECT_FALSE(ParseInto(p, {"--int"}));
}

TEST(FlagsTest, HelpReturnsFalse) {
  Parsed p;
  EXPECT_FALSE(ParseInto(p, {"--help"}));
}

TEST(FlagsTest, PositionalArgumentsRejected) {
  Parsed p;
  EXPECT_FALSE(ParseInto(p, {"pos1"}));
  EXPECT_FALSE(ParseInto(p, {"--str", "v", "extra"}));
  EXPECT_FALSE(ParseInto(p, {"--flag", "junk"}));
  EXPECT_FALSE(ParseInto(p, {"-x"}));
  // A value token is consumed by its flag, never taken for a positional.
  EXPECT_TRUE(ParseInto(p, {"--dbl", "-3", "--str", "pos"}));
  EXPECT_DOUBLE_EQ(p.d, -3.0);
  EXPECT_EQ(p.s, "pos");
}

TEST(FlagsTest, UsageListsFlagsAndDefaults) {
  FlagSet flags("prog", "does things");
  int64_t v = 9;
  flags.Int("answer", &v, "the answer");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("prog"), std::string::npos);
  EXPECT_NE(usage.find("--answer"), std::string::npos);
  EXPECT_NE(usage.find("9"), std::string::npos);
  EXPECT_NE(usage.find("the answer"), std::string::npos);
}

TEST(FlagsDeathTest, DuplicateFlagAborts) {
  FlagSet flags("test", "dup");
  std::string a;
  std::string b;
  flags.String("x", &a, "first");
  EXPECT_DEATH(flags.String("x", &b, "second"), "duplicate");
}

}  // namespace
}  // namespace crius
