#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "common/error.hpp"

namespace alsmf {
namespace {

CliArgs make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

// The Error message of `read`, or "" when it does not throw Error.
std::string error_of(const std::function<void()>& read) {
  try {
    read();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, ParsesSpaceSeparatedValue) {
  auto args = make({"prog", "--k", "16"});
  EXPECT_EQ(args.get_long("k", 0), 16);
}

TEST(Cli, ParsesEqualsForm) {
  auto args = make({"prog", "--lambda=0.25"});
  EXPECT_DOUBLE_EQ(args.get_double("lambda", 0), 0.25);
}

TEST(Cli, BooleanFlag) {
  auto args = make({"prog", "--verbose"});
  EXPECT_TRUE(args.has_flag("verbose"));
  EXPECT_FALSE(args.has_flag("quiet"));
}

TEST(Cli, FlagFollowedByFlag) {
  auto args = make({"prog", "--a", "--b", "7"});
  EXPECT_TRUE(args.has_flag("a"));
  EXPECT_EQ(args.get_long("b", 0), 7);
}

TEST(Cli, DefaultsWhenAbsent) {
  auto args = make({"prog"});
  EXPECT_EQ(args.get_or("name", "fallback"), "fallback");
  EXPECT_EQ(args.get_long("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(args.get("missing").has_value());
}

TEST(Cli, PositionalArguments) {
  auto args = make({"prog", "input.txt", "--k", "3", "output.txt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "output.txt");
}

TEST(Cli, ProgramName) {
  auto args = make({"myprog"});
  EXPECT_EQ(args.program(), "myprog");
}

TEST(Cli, MalformedNumbersThrowNamingFlagAndValue) {
  // Trailing text: strtol alone would read 3 and drop the "x".
  const auto trailing = make({"prog", "--iters", "3x"});
  const std::string m = error_of([&] { trailing.get_long("iters", 10); });
  EXPECT_NE(m.find("--iters"), std::string::npos) << m;
  EXPECT_NE(m.find("'3x'"), std::string::npos) << m;

  // A numeric flag followed by another flag has an empty value.
  const auto empty = make({"prog", "--iters", "--k", "6"});
  EXPECT_NE(error_of([&] { empty.get_long("iters", 10); }).find("--iters"),
            std::string::npos);
  EXPECT_EQ(empty.get_long("k", 0), 6);
  EXPECT_NE(error_of([&] { make({"prog", "--user=3x"}).get_long("user", 0); })
                .find("'3x'"),
            std::string::npos);

  // No digits at all, and a value past the range of long.
  EXPECT_NE(error_of([&] { make({"prog", "--k", "abc"}).get_long("k", 10); })
                .find("'abc'"),
            std::string::npos);
  const auto huge = make({"prog", "--k", "99999999999999999999"});
  const std::string range = error_of([&] { huge.get_long("k", 10); });
  EXPECT_NE(range.find("--k"), std::string::npos) << range;
  EXPECT_NE(range.find("out of range"), std::string::npos) << range;

  // The same three failures for doubles.
  const auto d = make({"prog", "--lambda", "0.1x", "--zipf", "1e999",
                       "--scale", "--k", "6"});
  EXPECT_NE(error_of([&] { d.get_double("lambda", 0.1); }).find("'0.1x'"),
            std::string::npos);
  EXPECT_NE(error_of([&] { d.get_double("zipf", 1.0); }).find("out of range"),
            std::string::npos);
  EXPECT_NE(error_of([&] { d.get_double("scale", 1.0); }).find("--scale"),
            std::string::npos);

  // Absent flags still fall back to the default.
  EXPECT_EQ(d.get_long("iters", 10), 10);
  EXPECT_DOUBLE_EQ(d.get_double("alpha", 2.5), 2.5);
}

TEST(Cli, UnknownFlagNamesTheFirstUndeclaredFlag) {
  const auto args =
      make({"prog", "train", "--ratings", "r.txt", "--iter", "1", "--wr"});
  EXPECT_FALSE(args.unknown_flag({"ratings", "iters", "wr"}) == std::nullopt);
  EXPECT_EQ(args.unknown_flag({"ratings", "iters", "wr"}).value_or(""),
            "iter");
  EXPECT_EQ(args.unknown_flag({"ratings", "iter", "wr"}), std::nullopt);
  // Positional arguments are not flags; no flags at all is always fine.
  EXPECT_EQ(make({"prog", "serve"}).unknown_flag({}), std::nullopt);
  EXPECT_EQ(make({"prog", "--max-wait-us=200"}).unknown_flag({"model"}),
            std::optional<std::string>("max-wait-us"));
}

TEST(Cli, LastValueWins) {
  auto args = make({"prog", "--k", "1", "--k", "2"});
  EXPECT_EQ(args.get_long("k", 0), 2);
}

}  // namespace
}  // namespace alsmf
