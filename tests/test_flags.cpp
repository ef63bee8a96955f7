#include "celect/util/flags.h"

#include <gtest/gtest.h>

namespace celect {
namespace {

Flags Make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  Flags f = Make({"--n=64", "--name=foo"});
  EXPECT_EQ(f.GetInt("n", 0, ""), 64);
  EXPECT_EQ(f.GetString("name", "", ""), "foo");
}

TEST(Flags, SpaceForm) {
  Flags f = Make({"--n", "128"});
  EXPECT_EQ(f.GetInt("n", 0, ""), 128);
}

TEST(Flags, DefaultsWhenAbsent) {
  Flags f = Make({});
  EXPECT_EQ(f.GetInt("n", 42, ""), 42);
  EXPECT_EQ(f.GetString("s", "dft", ""), "dft");
  EXPECT_DOUBLE_EQ(f.GetDouble("d", 2.5, ""), 2.5);
  EXPECT_TRUE(f.GetBool("b", true, ""));
}

TEST(Flags, BareFlagIsTrue) {
  Flags f = Make({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false, ""));
}

TEST(Flags, BoolSpellings) {
  EXPECT_TRUE(Make({"--x=true"}).GetBool("x", false, ""));
  EXPECT_TRUE(Make({"--x=1"}).GetBool("x", false, ""));
  EXPECT_TRUE(Make({"--x=yes"}).GetBool("x", false, ""));
  EXPECT_FALSE(Make({"--x=false"}).GetBool("x", true, ""));
  EXPECT_FALSE(Make({"--x=0"}).GetBool("x", true, ""));
}

TEST(Flags, NegativeAndDoubleValues) {
  Flags f = Make({"--a=-5", "--b=0.25"});
  EXPECT_EQ(f.GetInt("a", 0, ""), -5);
  EXPECT_DOUBLE_EQ(f.GetDouble("b", 0, ""), 0.25);
}

TEST(FlagsDeathTest, IntegerOutOfRangeOrSpacedDies) {
  // An integer flag is the whole value in range: an overflow must not
  // saturate silently, and a stray space is not part of a number.
  EXPECT_DEATH(Make({"--k=99999999999999999999"}).GetInt("k", 0, ""),
               "expects an integer");
  EXPECT_DEATH(Make({"--k= 7"}).GetInt("k", 0, ""), "expects an integer");
  EXPECT_DEATH(Make({"--k=7x"}).GetInt("k", 0, ""), "expects an integer");
}

TEST(Flags, PositionalCollected) {
  Flags f = Make({"pos1", "--n=2", "pos2"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "pos1");
  EXPECT_EQ(f.positional()[1], "pos2");
}

TEST(Flags, HelpRequested) {
  Flags f = Make({"--help"});
  EXPECT_TRUE(f.help_requested());
  f.GetInt("n", 3, "node count");
  std::string help = f.HelpText();
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("node count"), std::string::npos);
}

TEST(Flags, HasDetectsPresence) {
  Flags f = Make({"--n=1"});
  EXPECT_TRUE(f.Has("n"));
  EXPECT_FALSE(f.Has("m"));
}

}  // namespace
}  // namespace celect
