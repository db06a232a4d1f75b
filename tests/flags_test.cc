#include "common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace p2 {
namespace {

/// One row of every target kind.
struct Targets {
  bool on = false;
  int small = 0;
  std::int64_t big = 0;
  std::string path;
  std::vector<int> ints;
  std::vector<std::int64_t> longs;
  std::string mode;

  std::vector<Flag> Table() {
    return {
        {"on", &on, "a bare flag"},
        {"small", &small, "an int of at least -5", -5},
        {"big", &big, "a non-negative int64", 0},
        {"path", &path, "a string"},
        {"ints", &ints, "ints in [0, 100]", 0, 100},
        {"longs", &longs, "positive int64s", 1},
        {"mode",
         [this](const std::string& value, std::string* error) {
           if (value != "a" && value != "b") {
             *error = "must be a or b";
             return false;
           }
           mode = value;
           return true;
         },
         "a or b,\ndecided by a callback"},
    };
  }

  bool Parse(const std::vector<std::string>& args, std::string* error,
             std::vector<std::string>* positional = nullptr) {
    return ParseFlags(args, Table(), "usage: flags_test [FLAGS]\n",
                      positional, error);
  }
};

TEST(Flags, StoresEveryKindAtItsBounds) {
  Targets t;
  std::string error;
  ASSERT_TRUE(t.Parse({"--on", "--small=2147483647",
                       "--big=9223372036854775807", "--path=/tmp/x",
                       "--ints=0,100", "--longs=1,9223372036854775807",
                       "--mode=b"},
                      &error))
      << error;
  EXPECT_TRUE(t.on);
  EXPECT_EQ(t.small, 2147483647);
  EXPECT_EQ(t.big, INT64_MAX);
  EXPECT_EQ(t.path, "/tmp/x");
  EXPECT_EQ(t.ints, (std::vector<int>{0, 100}));
  EXPECT_EQ(t.longs, (std::vector<std::int64_t>{1, INT64_MAX}));
  EXPECT_EQ(t.mode, "b");
}

TEST(Flags, RejectsEachBadArgumentNamingTheFlag) {
  const std::pair<std::string, std::string> cases[] = {
      {"--on=1", "--on takes no value"},
      {"--on=", "--on takes no value"},
      {"--small", "--small needs a value"},
      // 2^31 would narrow to INT_MIN.
      {"--small=2147483648",
       "--small takes integers in [-5, 2147483647], got \"2147483648\""},
      {"--small=-6", "--small takes integers in [-5, 2147483647]"},
      {"--small=+1", "--small takes integers"},
      {"--small= 1", "--small takes integers"},
      {"--small=1x", "--small takes integers"},
      {"--big=9223372036854775808", "--big takes integers >= 0"},  // 2^63
      {"--big=-1", "--big takes integers >= 0"},
      {"--ints=1,,2", "--ints takes integers in [0, 100], got \"\""},
      {"--ints=1,", "--ints takes integers"},
      {"--ints=101", "--ints takes integers in [0, 100], got \"101\""},
      {"--longs=0", "--longs takes integers >= 1"},
      {"--path=", "--path needs a value"},
      {"--mode=c", "--mode must be a or b"},
      {"--mode", "--mode needs a value"},
      {"--nope=1", "unrecognized flag: --nope"},
      {"--Small=1", "unrecognized flag: --Small"},
      {"stray", "unrecognized argument: stray"},
      {"-on", "unrecognized argument: -on"},
  };
  for (const auto& [arg, message] : cases) {
    Targets t;
    std::string error;
    EXPECT_FALSE(t.Parse({arg}, &error)) << arg;
    EXPECT_EQ(error.rfind(message, 0), 0u) << arg << " gave: " << error;
  }
}

TEST(Flags, RepeatedFlagsReplaceEarlierValues) {
  Targets t;
  std::string error;
  ASSERT_TRUE(t.Parse({"--ints=1,2,3", "--small=4", "--ints=7", "--small=5",
                       "--path=a", "--path=b"},
                      &error))
      << error;
  EXPECT_EQ(t.ints, (std::vector<int>{7}));
  EXPECT_EQ(t.small, 5);
  EXPECT_EQ(t.path, "b");
}

TEST(Flags, AFailedListLeavesTheTargetUntouched) {
  Targets t;
  std::string error;
  EXPECT_FALSE(t.Parse({"--ints=1,2", "--ints=3,x"}, &error));
  EXPECT_EQ(t.ints, (std::vector<int>{1, 2}));
}

TEST(Flags, CollectsPositionalArgumentsWhenAllowed) {
  Targets t;
  std::string error;
  std::vector<std::string> positional;
  ASSERT_TRUE(t.Parse({"a.txt", "--on", "b.txt"}, &error, &positional))
      << error;
  EXPECT_TRUE(t.on);
  EXPECT_EQ(positional, (std::vector<std::string>{"a.txt", "b.txt"}));
}

TEST(Flags, HelpIsRenderedFromTheRows) {
  Targets t;
  std::string error;
  EXPECT_FALSE(t.Parse({"--on", "--help"}, &error));
  EXPECT_EQ(error.rfind("usage: flags_test [FLAGS]\n", 0), 0u) << error;
  EXPECT_NE(error.find("\n  --on          a bare flag\n"), std::string::npos)
      << error;
  // Continuation lines line up under the first help line.
  EXPECT_NE(error.find("\n  --mode        a or b,\n"
                       "                decided by a callback\n"),
            std::string::npos)
      << error;
  std::string short_help;
  EXPECT_FALSE(t.Parse({"-h"}, &short_help));
  EXPECT_EQ(short_help, error);
  // An unknown flag shows the same table after the message.
  std::string unknown;
  EXPECT_FALSE(t.Parse({"--nope"}, &unknown));
  EXPECT_EQ(unknown, "unrecognized flag: --nope\n\n" + error);
}

TEST(Flags, ParseFlagIntIsStrictDecimal) {
  std::int64_t v = 0;
  EXPECT_TRUE(ParseFlagInt("-42", -100, 100, &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseFlagInt("007", 0, 10, &v));
  EXPECT_EQ(v, 7);
  for (const char* bad : {"", "-", "+1", " 1", "1 ", "0x10", "1e3", "11"}) {
    EXPECT_FALSE(ParseFlagInt(bad, 0, 10, &v)) << bad;
  }
  EXPECT_FALSE(ParseFlagInt("9223372036854775808", 0, INT64_MAX, &v));
}

}  // namespace
}  // namespace p2
