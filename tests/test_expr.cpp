// Expression semantics, evaluated through the library's only evaluator: the
// compiled ExprProgram.
#include "expr/ast.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "expr/program.hpp"
#include "expr_oracle.hpp"

namespace evps {
namespace {

using oracle::scope_of;

double eval(const ExprPtr& e, const EvalScope& scope = EvalScope{}) {
  return ExprProgram::compile(e).eval(scope);
}

TEST(Expr, ConstantEval) {
  const EvalScope env;
  EXPECT_DOUBLE_EQ(eval(Expr::constant(3.5), env), 3.5);
  EXPECT_TRUE(Expr::constant(1)->is_constant());
}

TEST(Expr, VariableEval) {
  const EvalScope env = scope_of({{"t", 4.0}});
  EXPECT_DOUBLE_EQ(eval(Expr::variable("t"), env), 4.0);
  EXPECT_FALSE(Expr::variable("t")->is_constant());
}

TEST(Expr, UnboundVariableThrows) {
  const EvalScope env;
  EXPECT_THROW((void)eval(Expr::variable("ghost"), env), UnboundVariableError);
}

TEST(Expr, EmptyVariableNameRejected) {
  EXPECT_THROW(Expr::variable(""), std::invalid_argument);
}

TEST(Expr, BinaryArithmetic) {
  const EvalScope env = scope_of({{"t", 2.0}});
  const auto t = Expr::variable("t");
  EXPECT_DOUBLE_EQ(eval(Expr::add(Expr::constant(1), t), env), 3.0);
  EXPECT_DOUBLE_EQ(eval(Expr::sub(Expr::constant(1), t), env), -1.0);
  EXPECT_DOUBLE_EQ(eval(Expr::mul(Expr::constant(3), t), env), 6.0);
  EXPECT_DOUBLE_EQ(eval(Expr::div(Expr::constant(5), t), env), 2.5);
  EXPECT_DOUBLE_EQ(eval(Expr::binary(BinaryOp::kMod, Expr::constant(7), t), env), 1.0);
  EXPECT_DOUBLE_EQ(eval(Expr::binary(BinaryOp::kPow, t, Expr::constant(10)), env), 1024.0);
}

TEST(Expr, DivisionByZeroGivesInfinity) {
  const EvalScope env;
  const double r = eval(Expr::div(Expr::constant(1), Expr::constant(0)), env);
  EXPECT_TRUE(std::isinf(r));
}

TEST(Expr, UnaryFunctions) {
  const EvalScope env = scope_of({{"x", -2.25}});
  const auto x = Expr::variable("x");
  EXPECT_DOUBLE_EQ(eval(Expr::unary(UnaryOp::kNeg, x), env), 2.25);
  EXPECT_DOUBLE_EQ(eval(Expr::unary(UnaryOp::kAbs, x), env), 2.25);
  EXPECT_DOUBLE_EQ(eval(Expr::unary(UnaryOp::kFloor, x), env), -3.0);
  EXPECT_DOUBLE_EQ(eval(Expr::unary(UnaryOp::kCeil, x), env), -2.0);
  EXPECT_DOUBLE_EQ(eval(Expr::unary(UnaryOp::kSign, x), env), -1.0);
  EXPECT_DOUBLE_EQ(eval(Expr::unary(UnaryOp::kSqrt, Expr::constant(9)), env), 3.0);
  EXPECT_NEAR(eval(Expr::unary(UnaryOp::kSin, Expr::constant(0)), env), 0.0, 1e-12);
  EXPECT_NEAR(eval(Expr::unary(UnaryOp::kCos, Expr::constant(0)), env), 1.0, 1e-12);
}

TEST(Expr, Calls) {
  const EvalScope env = scope_of({{"a", 5.0}, {"b", -3.0}});
  const auto a = Expr::variable("a");
  const auto b = Expr::variable("b");
  EXPECT_DOUBLE_EQ(eval(Expr::call(CallFn::kMin, {a, b}), env), -3.0);
  EXPECT_DOUBLE_EQ(eval(Expr::call(CallFn::kMax, {a, b}), env), 5.0);
  EXPECT_DOUBLE_EQ(
      eval(Expr::call(CallFn::kClamp, {a, Expr::constant(0), Expr::constant(2)}), env), 2.0);
  EXPECT_DOUBLE_EQ(eval(Expr::call(CallFn::kStep, {b}), env), 0.0);
  EXPECT_DOUBLE_EQ(eval(Expr::call(CallFn::kStep, {a}), env), 1.0);
}

TEST(Expr, CallArityChecked) {
  EXPECT_THROW(Expr::call(CallFn::kClamp, {Expr::constant(1)}), std::invalid_argument);
  EXPECT_THROW(Expr::call(CallFn::kStep, {Expr::constant(1), Expr::constant(2)}),
               std::invalid_argument);
  EXPECT_THROW(Expr::call(CallFn::kMin, {}), std::invalid_argument);
}

TEST(Expr, NullOperandsRejected) {
  EXPECT_THROW(Expr::unary(UnaryOp::kAbs, nullptr), std::invalid_argument);
  EXPECT_THROW(Expr::binary(BinaryOp::kAdd, Expr::constant(1), nullptr), std::invalid_argument);
}

TEST(Expr, VariableCollection) {
  const auto e = Expr::add(Expr::mul(Expr::variable("t"), Expr::constant(2)),
                           Expr::call(CallFn::kMax, {Expr::variable("v"), Expr::variable("t")}));
  const auto vars = e->variables();
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_TRUE(vars.contains("t"));
  EXPECT_TRUE(vars.contains("v"));
}

TEST(Expr, ConstnessPropagates) {
  EXPECT_TRUE(Expr::add(Expr::constant(1), Expr::constant(2))->is_constant());
  EXPECT_FALSE(Expr::add(Expr::constant(1), Expr::variable("t"))->is_constant());
  EXPECT_TRUE(Expr::call(CallFn::kMin, {Expr::constant(1), Expr::constant(2)})->is_constant());
}

TEST(Expr, StructuralEquality) {
  const auto a = Expr::add(Expr::constant(1), Expr::variable("t"));
  const auto b = Expr::add(Expr::constant(1), Expr::variable("t"));
  const auto c = Expr::add(Expr::constant(2), Expr::variable("t"));
  const auto d = Expr::sub(Expr::constant(1), Expr::variable("t"));
  EXPECT_TRUE(a->equals(*b));
  EXPECT_FALSE(a->equals(*c));
  EXPECT_FALSE(a->equals(*d));
  EXPECT_FALSE(a->equals(*Expr::constant(1)));
}

TEST(Expr, ToStringForms) {
  EXPECT_EQ(Expr::variable("t")->to_string(), "t");
  EXPECT_EQ(Expr::add(Expr::constant(1), Expr::variable("t"))->to_string(), "(1 + t)");
  EXPECT_EQ(Expr::unary(UnaryOp::kNeg, Expr::variable("x"))->to_string(), "(-x)");
  EXPECT_EQ(Expr::call(CallFn::kMin, {Expr::variable("a"), Expr::variable("b")})->to_string(),
            "min(a, b)");
}

TEST(EvalScope, BindAndOverwrite) {
  EvalScope env;
  const VarId x = VariableTable::instance().intern("x");
  EXPECT_FALSE(env.has(x));
  env.bind(x, 1.0);
  EXPECT_TRUE(env.has(x));
  EXPECT_DOUBLE_EQ(env.lookup(x), 1.0);
  env.bind(x, 2.0);  // overwrite
  EXPECT_DOUBLE_EQ(env.lookup(x), 2.0);
}

}  // namespace
}  // namespace evps
