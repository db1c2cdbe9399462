#include "message/predicate.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "expr/parser.hpp"
#include "expr_oracle.hpp"

namespace evps {
namespace {

using oracle::scope_of;

/// pub_value OP fun(scope), through the compiled form the engines run.
bool matches(const Predicate& p, const Value& pub_value, const EvalScope& scope) {
  std::vector<double> stack;
  return CompiledPredicate{p}.matches(pub_value, scope, stack);
}

TEST(RelOp, ToStringAndParse) {
  for (const RelOp op : {RelOp::kLt, RelOp::kLe, RelOp::kGt, RelOp::kGe, RelOp::kEq, RelOp::kNe}) {
    const auto parsed = parse_rel_op(to_string(op));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, op);
  }
  EXPECT_EQ(parse_rel_op("=="), RelOp::kEq);
  EXPECT_EQ(parse_rel_op("<>"), RelOp::kNe);
  EXPECT_FALSE(parse_rel_op("~").has_value());
}

TEST(ApplyRelOp, Numeric) {
  EXPECT_TRUE(apply_rel_op(RelOp::kLt, Value{1}, Value{2}));
  EXPECT_FALSE(apply_rel_op(RelOp::kLt, Value{2}, Value{2}));
  EXPECT_TRUE(apply_rel_op(RelOp::kLe, Value{2}, Value{2}));
  EXPECT_TRUE(apply_rel_op(RelOp::kGt, Value{3.5}, Value{2}));
  EXPECT_TRUE(apply_rel_op(RelOp::kGe, Value{2}, Value{2.0}));
  EXPECT_TRUE(apply_rel_op(RelOp::kEq, Value{2}, Value{2.0}));
  EXPECT_TRUE(apply_rel_op(RelOp::kNe, Value{2}, Value{3}));
}

TEST(ApplyRelOp, IncomparableOnlySatisfiesNe) {
  for (const RelOp op : {RelOp::kLt, RelOp::kLe, RelOp::kGt, RelOp::kGe, RelOp::kEq}) {
    EXPECT_FALSE(apply_rel_op(op, Value{"abc"}, Value{1})) << to_string(op);
  }
  EXPECT_TRUE(apply_rel_op(RelOp::kNe, Value{"abc"}, Value{1}));
}

TEST(Predicate, StaticMatch) {
  const Predicate p{"x", RelOp::kLt, Value{3}};
  EXPECT_FALSE(p.is_evolving());
  EXPECT_TRUE(p.matches(Value{2}));
  EXPECT_FALSE(p.matches(Value{3}));
  EXPECT_EQ(p.attribute(), "x");
  EXPECT_EQ(p.op(), RelOp::kLt);
}

TEST(Predicate, StringEquality) {
  const Predicate p{"symbol", RelOp::kEq, Value{"IBM"}};
  EXPECT_TRUE(p.matches(Value{"IBM"}));
  EXPECT_FALSE(p.matches(Value{"MSFT"}));
  EXPECT_FALSE(p.matches(Value{42}));
}

TEST(Predicate, EvolvingMatch) {
  const Predicate p{"x", RelOp::kLt, parse_expr("2 * t")};
  EXPECT_TRUE(p.is_evolving());
  const EvalScope env = scope_of({{"t", 3.0}});
  EXPECT_TRUE(matches(p, Value{5}, env));   // 5 < 6
  EXPECT_FALSE(matches(p, Value{7}, env));  // 7 < 6 is false
}

TEST(Predicate, ConstantFunctionDegeneratesToStatic) {
  const Predicate p{"x", RelOp::kLt, parse_expr("2 + 3")};
  EXPECT_FALSE(p.is_evolving());
  EXPECT_TRUE(p.matches(Value{4}));
  EXPECT_DOUBLE_EQ(p.constant().as_double(), 5.0);
}

TEST(Predicate, NullFunctionRejected) {
  EXPECT_THROW(Predicate("x", RelOp::kLt, ExprPtr{}), std::invalid_argument);
}

TEST(Predicate, Materialize) {
  const Predicate p{"x", RelOp::kGe, parse_expr("-3 + t")};
  const EvalScope env = scope_of({{"t", 1.0}});
  const Predicate version = oracle::materialize(p, env);
  EXPECT_FALSE(version.is_evolving());
  EXPECT_DOUBLE_EQ(version.constant().as_double(), -2.0);
  EXPECT_EQ(version.attribute(), "x");
  EXPECT_EQ(version.op(), RelOp::kGe);

  // Static predicates materialise to themselves.
  const Predicate s{"y", RelOp::kEq, Value{7}};
  EXPECT_EQ(oracle::materialize(s, env), s);
}

TEST(Predicate, Variables) {
  const Predicate p{"x", RelOp::kGe, parse_expr("(3 + t) * v")};
  const auto vars = p.variables();
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_TRUE(vars.contains("t"));
  EXPECT_TRUE(vars.contains("v"));
  EXPECT_TRUE(Predicate("x", RelOp::kGe, Value{1}).variables().empty());
}

TEST(Predicate, EqualityAndToString) {
  const Predicate a{"x", RelOp::kLt, Value{3}};
  const Predicate b{"x", RelOp::kLt, Value{3}};
  const Predicate c{"x", RelOp::kLe, Value{3}};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.to_string(), "x < 3");

  const Predicate e1{"x", RelOp::kGe, parse_expr("t * 2")};
  const Predicate e2{"x", RelOp::kGe, parse_expr("t * 2")};
  const Predicate e3{"x", RelOp::kGe, parse_expr("t * 3")};
  EXPECT_EQ(e1, e2);
  EXPECT_FALSE(e1 == e3);
  EXPECT_FALSE(e1 == a);
}

TEST(Predicate, UnboundVariableFailsClosed) {
  const Predicate p{"x", RelOp::kGe, parse_expr("10 * ghost")};
  const EvalScope empty;
  EXPECT_FALSE(matches(p, Value{1'000'000}, empty));  // no crash, no match

  // The compiled bound reports the unbound variable instead of throwing.
  std::vector<double> stack;
  bool unbound = false;
  EXPECT_TRUE(std::isnan(CompiledPredicate{p}.bound(empty, stack, unbound)));
  EXPECT_TRUE(unbound);

  const Predicate version = oracle::materialize(p, empty);
  EXPECT_FALSE(version.is_evolving());
  EXPECT_FALSE(version.matches(Value{1'000'000}));
  EXPECT_FALSE(version.matches(Value{-1'000'000}));
  EXPECT_FALSE(version.matches(Value{"anything"}));
}

TEST(Predicate, NonFiniteConstantExpressionStaysEvolvingAndNeverMatches) {
  // sqrt(-1) is a constant NaN: kept as an expression (a NaN Value would not
  // round-trip), and the comparison never satisfies an ordering operator.
  const Predicate p{"x", RelOp::kLt, parse_expr("sqrt(0 - 1)")};
  EXPECT_TRUE(p.is_evolving());
  EXPECT_FALSE(matches(p, Value{0}, EvalScope{}));
}

TEST(Predicate, PaperGameExample) {
  // Section III-C: publication (x,4) vs subscription {x >= -3 + t, x <= 3 + t}.
  const Predicate lo{"x", RelOp::kGe, parse_expr("-3 + t")};
  const Predicate hi{"x", RelOp::kLe, parse_expr("3 + t")};
  const EvalScope at0 = scope_of({{"t", 0.0}});
  const EvalScope at1 = scope_of({{"t", 1.0}});
  // At t=0 the publication x=4 does not match (4 <= 3 fails).
  EXPECT_TRUE(matches(lo, Value{4}, at0));
  EXPECT_FALSE(matches(hi, Value{4}, at0));
  // At t=1 it matches: 4 >= -2 and 4 <= 4.
  EXPECT_TRUE(matches(lo, Value{4}, at1));
  EXPECT_TRUE(matches(hi, Value{4}, at1));
}

}  // namespace
}  // namespace evps
