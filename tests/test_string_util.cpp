#include "common/string_util.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace evps {
namespace {

TEST(Split, Basic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, PreservesEmptyFields) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitQuoted, SeparatorInsideQuotesIgnored) {
  const auto parts = split_quoted("name = 'a;b'; other = 1", ';');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "name = 'a;b'");
  EXPECT_EQ(parts[1], " other = 1");
}

TEST(SplitQuoted, UnbalancedQuoteSwallowsRest) {
  const auto parts = split_quoted("a'x;y", ';');
  ASSERT_EQ(parts.size(), 1u);
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t x\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("inner space kept"), "inner space kept");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("abcdef", "abc"));
  EXPECT_FALSE(starts_with("abcdef", "bcd"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_FALSE(starts_with("", "x"));
}

TEST(Join, Basics) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(ParseNumber, UnsignedIntegersUseTheFieldsFullRange) {
  std::uint64_t u = 7;
  EXPECT_TRUE(parse_number("0", u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(parse_number("18446744073709551615", u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  // Exact above 2^53, where a round trip through double would round.
  EXPECT_TRUE(parse_number("9007199254740993", u));
  EXPECT_EQ(u, 9007199254740993u);
  std::size_t n = 0;
  EXPECT_TRUE(parse_number("200", n));
  EXPECT_EQ(n, 200u);
}

TEST(ParseNumber, IntegersRejectSignFractionExponentTrailingTextAndOverflow) {
  for (const char* bad : {"", "-1", "+1", "-0", "2.7", "1e3", "nan", "inf", " 1", "1 ", "12x",
                          "0x10", "18446744073709551616", "99999999999999999999999"}) {
    std::uint64_t u = 7;
    EXPECT_FALSE(parse_number(bad, u)) << "'" << bad << "'";
    EXPECT_EQ(u, 7u) << "failed parses leave the field untouched";
  }
  int i = 7;
  EXPECT_FALSE(parse_number("-3", i));  // no sign even where the type has one
  EXPECT_FALSE(parse_number("2147483648", i));
  EXPECT_TRUE(parse_number("2147483647", i));
  EXPECT_EQ(i, 2147483647);
}

TEST(ParseNumber, DoublesMustBeWholeAndFinite) {
  double d = 0;
  EXPECT_TRUE(parse_number("2.5", d));
  EXPECT_EQ(d, 2.5);
  EXPECT_TRUE(parse_number("-0.5", d));
  EXPECT_EQ(d, -0.5);
  EXPECT_TRUE(parse_number("1e-3", d));
  EXPECT_EQ(d, 1e-3);
  EXPECT_TRUE(parse_number("5", d));
  EXPECT_EQ(d, 5.0);
  for (const char* bad : {"", "nan", "NaN", "inf", "-inf", "1e999", "1.5x", " 1", "1 ", "+1",
                          "--1"}) {
    double v = 3.0;
    EXPECT_FALSE(parse_number(bad, v)) << "'" << bad << "'";
    EXPECT_EQ(v, 3.0);
  }
}

TEST(ParseNumberFlag, MatchesPrefixThenParsesOrThrows) {
  std::size_t workers = 1;
  EXPECT_FALSE(parse_number_flag("--replicas=4", "--workers=", workers));
  EXPECT_EQ(workers, 1u);
  EXPECT_TRUE(parse_number_flag("--workers=4", "--workers=", workers));
  EXPECT_EQ(workers, 4u);
  EXPECT_THROW((void)parse_number_flag("--workers=-3", "--workers=", workers),
               std::invalid_argument);
  EXPECT_THROW((void)parse_number_flag("--workers=", "--workers=", workers),
               std::invalid_argument);
  double settle = 5.0;
  EXPECT_THROW((void)parse_number_flag("--settle=nan", "--settle=", settle),
               std::invalid_argument);
  EXPECT_EQ(workers, 4u);
  EXPECT_EQ(settle, 5.0);
}

}  // namespace
}  // namespace evps
