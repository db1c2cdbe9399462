#include "expr/parser.hpp"

#include <gtest/gtest.h>

#include "expr/program.hpp"
#include "expr_oracle.hpp"

namespace evps {
namespace {

using oracle::scope_of;

double eval(std::string_view text, const EvalScope& env = EvalScope{}) {
  return ExprProgram::compile(parse_expr(text)).eval(env);
}

TEST(Parser, Numbers) {
  EXPECT_DOUBLE_EQ(eval("42"), 42.0);
  EXPECT_DOUBLE_EQ(eval("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(eval("0.125"), 0.125);
  EXPECT_DOUBLE_EQ(eval(".5"), 0.5);
}

TEST(Parser, Precedence) {
  EXPECT_DOUBLE_EQ(eval("2 + 3 * 4"), 14.0);
  EXPECT_DOUBLE_EQ(eval("(2 + 3) * 4"), 20.0);
  EXPECT_DOUBLE_EQ(eval("10 - 4 - 3"), 3.0);    // left associative
  EXPECT_DOUBLE_EQ(eval("12 / 3 / 2"), 2.0);    // left associative
  EXPECT_DOUBLE_EQ(eval("2 ^ 3 ^ 2"), 512.0);   // right associative
  EXPECT_DOUBLE_EQ(eval("7 % 4"), 3.0);
  EXPECT_DOUBLE_EQ(eval("2 * 3 ^ 2"), 18.0);    // ^ binds tighter
}

TEST(Parser, UnaryMinus) {
  EXPECT_DOUBLE_EQ(eval("-5"), -5.0);
  EXPECT_DOUBLE_EQ(eval("--5"), 5.0);
  EXPECT_DOUBLE_EQ(eval("3 + -2"), 1.0);
  EXPECT_DOUBLE_EQ(eval("-2 ^ 2"), -4.0);  // -(2^2): conventional precedence
}

TEST(Parser, Variables) {
  const EvalScope env = scope_of({{"t", 3.0}, {"v", 0.5}});
  EXPECT_DOUBLE_EQ(eval("2 * t", env), 6.0);
  EXPECT_DOUBLE_EQ(eval("(3 + t) * v", env), 3.0);
  EXPECT_DOUBLE_EQ(eval("t + t * v", env), 4.5);
}

TEST(Parser, PaperExampleSubscriptionBounds) {
  // Section III-C: { x >= (-3 + t) * v } at t = 1, v = 0.5.
  const EvalScope env = scope_of({{"t", 1.0}, {"v", 0.5}});
  EXPECT_DOUBLE_EQ(eval("(-3 + t) * v", env), -1.0);
  EXPECT_DOUBLE_EQ(eval("(3 + t) * v", env), 2.0);
}

TEST(Parser, Functions) {
  const EvalScope env = scope_of({{"x", -4.0}});
  EXPECT_DOUBLE_EQ(eval("abs(x)", env), 4.0);
  EXPECT_DOUBLE_EQ(eval("min(1, 2, -3)"), -3.0);
  EXPECT_DOUBLE_EQ(eval("max(1, 2, -3)"), 2.0);
  EXPECT_DOUBLE_EQ(eval("clamp(x, -1, 1)", env), -1.0);
  EXPECT_DOUBLE_EQ(eval("step(x)", env), 0.0);
  EXPECT_DOUBLE_EQ(eval("sqrt(16)"), 4.0);
  EXPECT_DOUBLE_EQ(eval("floor(2.9)"), 2.0);
  EXPECT_DOUBLE_EQ(eval("ceil(2.1)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("sign(-9)"), -1.0);
}

TEST(Parser, NestedCalls) {
  EXPECT_DOUBLE_EQ(eval("max(min(5, 3), 1 + 1)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("abs(min(-2, 4)) * 3"), 6.0);
}

TEST(Parser, ConstantFolding) {
  EXPECT_TRUE(parse_expr("2 * 3 + 4")->is_constant());
  const auto folded = parse_expr("2 * 3 + t");
  // The constant subtree was folded: (6 + t).
  EXPECT_EQ(folded->to_string(), "(6 + t)");
}

TEST(Parser, WhitespaceInsensitive) {
  EXPECT_DOUBLE_EQ(eval("  1+ 2 \t*3 "), 7.0);
}

TEST(Parser, Errors) {
  EXPECT_THROW((void)parse_expr(""), ParseError);
  EXPECT_THROW((void)parse_expr("1 +"), ParseError);
  EXPECT_THROW((void)parse_expr("(1"), ParseError);
  EXPECT_THROW((void)parse_expr("1)"), ParseError);
  EXPECT_THROW((void)parse_expr("1 2"), ParseError);
  EXPECT_THROW((void)parse_expr("unknownfn(1)"), ParseError);
  EXPECT_THROW((void)parse_expr("min()"), ParseError);
  EXPECT_THROW((void)parse_expr("clamp(1, 2)"), ParseError);
  EXPECT_THROW((void)parse_expr("abs(1, 2)"), ParseError);
  EXPECT_THROW((void)parse_expr("$"), ParseError);
}

TEST(Parser, ErrorOffsetReported) {
  try {
    (void)parse_expr("1 + $");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
}

// Regression: ParseError must carry the offending token alongside the
// offset, so tools can underline the exact source span (caret diagnostics)
// without re-lexing the input.
TEST(Parser, ErrorCarriesOffendingToken) {
  const auto fail = [](std::string_view text) {
    try {
      (void)parse_expr(text);
      ADD_FAILURE() << "expected ParseError for '" << text << "'";
      return ParseError{"", 0};
    } catch (const ParseError& e) {
      return e;
    }
  };

  const auto unexpected = fail("1 + $");
  EXPECT_EQ(unexpected.offset(), 4u);
  EXPECT_EQ(unexpected.token(), "$");

  const auto trailing = fail("1 2");
  EXPECT_EQ(trailing.offset(), 2u);
  EXPECT_EQ(trailing.token(), "2");

  const auto primary = fail("1 + * 2");
  EXPECT_EQ(primary.offset(), 4u);
  EXPECT_EQ(primary.token(), "*");

  const auto arity = fail("abs(1, 2)");
  EXPECT_EQ(arity.offset(), 0u);
  EXPECT_EQ(arity.token(), "abs");

  const auto nary = fail("3 + clamp(1, 2)");
  EXPECT_EQ(nary.offset(), 4u);
  EXPECT_EQ(nary.token(), "clamp");

  const auto unknown = fail("frobnicate(1)");
  EXPECT_EQ(unknown.offset(), 0u);
  EXPECT_EQ(unknown.token(), "frobnicate");

  const auto unclosed = fail("min(1, 2");
  EXPECT_EQ(unclosed.offset(), 8u);
  EXPECT_TRUE(unclosed.token().empty());  // failure at end of input

  // The token always occurs at the reported offset of the original text.
  const std::string_view text = "1 + (t * $)";
  const auto located = fail(text);
  ASSERT_FALSE(located.token().empty());
  EXPECT_EQ(text.substr(located.offset(), located.token().size()), located.token());
}

TEST(Parser, MalformedNumberCarriesLocation) {
  try {
    (void)parse_expr("2 + .");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
    EXPECT_EQ(e.token(), ".");
  }
}

TEST(Parser, TryParseVariant) {
  std::string error;
  EXPECT_TRUE(try_parse_expr("1 + t", &error).has_value());
  EXPECT_FALSE(try_parse_expr("1 +", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(try_parse_expr("(((", nullptr).has_value());
}

class ParserRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRoundTrip, ToStringReparsesToEqualTree) {
  const auto original = parse_expr(GetParam());
  const auto reparsed = parse_expr(original->to_string());
  EXPECT_TRUE(original->equals(*reparsed))
      << GetParam() << " -> " << original->to_string() << " -> " << reparsed->to_string();
}

INSTANTIATE_TEST_SUITE_P(Expressions, ParserRoundTrip,
                         ::testing::Values("1 + t", "(3 + t) * v", "-t",
                                           "min(t, v, 3)", "clamp(t, 0, 1)",
                                           "t ^ 2 + sqrt(v)", "abs(-t) % 3",
                                           "step(t - 5) * maxDist",
                                           "2 * t - 3 * v + 1"));

}  // namespace
}  // namespace evps
