#include "reconcile/util/flags.h"

#include <gtest/gtest.h>

namespace reconcile {
namespace {

Flags ParseOk(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  Flags flags;
  std::string error;
  EXPECT_TRUE(flags.Parse(static_cast<int>(args.size()), args.data(), &error))
      << error;
  return flags;
}

TEST(FlagsTest, KeyEqualsValue) {
  Flags flags = ParseOk({"--model=pa", "--nodes=100"});
  EXPECT_EQ(flags.GetString("model", ""), "pa");
  EXPECT_EQ(flags.GetInt("nodes", 0), 100);
}

TEST(FlagsTest, KeySpaceValue) {
  Flags flags = ParseOk({"--model", "er", "--p", "0.5"});
  EXPECT_EQ(flags.GetString("model", ""), "er");
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0.0), 0.5);
}

TEST(FlagsTest, BareFlagIsTrue) {
  Flags flags = ParseOk({"--verbose"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags flags = ParseOk({});
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("missing", -7), -7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_FALSE(flags.GetBool("missing", false));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  Flags flags = ParseOk({"input.txt", "--k=2", "output.txt"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
}

TEST(FlagsTest, BoolSpellings) {
  Flags flags = ParseOk({"--a=true", "--b=1", "--c=yes", "--d=false",
                         "--e=0", "--f=no"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_FALSE(flags.GetBool("e", true));
  EXPECT_FALSE(flags.GetBool("f", true));
}

TEST(FlagsTest, NegativeNumbers) {
  Flags flags = ParseOk({"--x=-5", "--y=-0.25"});
  EXPECT_EQ(flags.GetInt("x", 0), -5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("y", 0.0), -0.25);
}

TEST(FlagsTest, UnusedKeysReported) {
  Flags flags = ParseOk({"--used=1", "--typo=2"});
  EXPECT_EQ(flags.GetInt("used", 0), 1);
  std::vector<std::string> unused = flags.UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagsTest, EmptyFlagNameRejected) {
  const char* args[] = {"prog", "--=3"};
  Flags flags;
  std::string error;
  EXPECT_FALSE(flags.Parse(2, args, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FlagsTest, LastValueWins) {
  Flags flags = ParseOk({"--k=1", "--k=2"});
  EXPECT_EQ(flags.GetInt("k", 0), 2);
}

TEST(FlagsDeathTest, BadIntegerAborts) {
  Flags flags = ParseOk({"--n=abc", "--m=2.5", "--k="});
  EXPECT_EXIT(flags.GetInt("n", 0), ::testing::ExitedWithCode(2),
              "not an integer");
  EXPECT_EXIT(flags.GetIntInRange("n", 1, 1, 100),
              ::testing::ExitedWithCode(2), "not an integer: abc");
  EXPECT_EXIT(flags.GetIntInRange("m", 1, 1, 100),
              ::testing::ExitedWithCode(2), "not an integer: 2.5");
  EXPECT_EXIT(flags.GetIntInRange("k", 1, 1, 100),
              ::testing::ExitedWithCode(2), "not an integer");
}

TEST(FlagsDeathTest, BadBoolExitsWithUsageError) {
  Flags flags = ParseOk({"--b=maybe"});
  EXPECT_EXIT(flags.GetBool("b", false), ::testing::ExitedWithCode(2),
              "not a boolean");
}

TEST(FlagsDeathTest, IntegerOverflowExitsWithUsageError) {
  Flags flags =
      ParseOk({"--n=99999999999999999999", "--m=-99999999999999999999"});
  EXPECT_EXIT(flags.GetInt("n", 0), ::testing::ExitedWithCode(2),
              "out of range");
  EXPECT_EXIT(flags.GetInt("m", 0), ::testing::ExitedWithCode(2),
              "out of range");
}

TEST(FlagsTest, IntInRangeAcceptsBoundsAndDefault) {
  Flags flags = ParseOk({"--lo=1", "--hi=8", "--neg=-3"});
  EXPECT_EQ(flags.GetIntInRange("lo", 5, 1, 8), 1);
  EXPECT_EQ(flags.GetIntInRange("hi", 5, 1, 8), 8);
  EXPECT_EQ(flags.GetIntInRange("neg", 0, -3, 3), -3);
  EXPECT_EQ(flags.GetIntInRange("absent", 5, 1, 8), 5);
  EXPECT_TRUE(flags.UnusedKeys().empty());
}

TEST(FlagsDeathTest, IntOutOfRangeExitsWithUsageError) {
  Flags flags = ParseOk({"--threads=-1", "--every=-5", "--big=9"});
  EXPECT_EXIT(flags.GetIntInRange("threads", 0, 0, 64),
              ::testing::ExitedWithCode(2),
              "flag --threads is out of range \\[0, 64\\]: -1");
  EXPECT_EXIT(flags.GetIntInRange("every", 1, 1, 100),
              ::testing::ExitedWithCode(2), "out of range \\[1, 100\\]: -5");
  EXPECT_EXIT(flags.GetIntInRange("big", 1, 1, 8),
              ::testing::ExitedWithCode(2), "out of range \\[1, 8\\]: 9");
}

TEST(FlagsDeathTest, BadDoubleExitsWithUsageError) {
  Flags flags = ParseOk({"--x=0.5abc", "--y=1e999"});
  EXPECT_EXIT(flags.GetDouble("x", 0.0), ::testing::ExitedWithCode(2),
              "not a number");
  EXPECT_EXIT(flags.GetDouble("y", 0.0), ::testing::ExitedWithCode(2),
              "out of range");
}

}  // namespace
}  // namespace reconcile
