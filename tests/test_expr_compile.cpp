// Property tests: the flat ExprProgram produced by ExprProgram::compile must
// be observationally identical to the tree-walking oracle (expr_oracle.hpp) —
// bit-for-bit equal results (NaN included), the same left-to-right operand
// evaluation order, and the same unbound-variable failure (same variable
// reported first).
//
// Expressions are generated randomly over every node kind the AST offers,
// with some variables deliberately left unbound, across >1000 seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "expr/ast.hpp"
#include "expr/program.hpp"
#include "expr/variable_registry.hpp"
#include "expr_oracle.hpp"
#include "message/predicate.hpp"

namespace evps {
namespace {

SimTime sec(double s) { return SimTime::from_seconds(s); }

// Variable pool: the first kBound are bound in every scope, the rest are
// never bound (plus `t`, which the scope always resolves).
constexpr int kBound = 4;
const char* const kVars[] = {"ec_a", "ec_b", "ec_c", "ec_d", "ec_miss1", "ec_miss2"};
constexpr int kPool = 6;

ExprPtr random_expr(Rng& rng, int depth) {
  if (depth <= 0 || rng.bernoulli(0.25)) {
    // Leaf: constant, pooled variable or `t`.
    const int pick = static_cast<int>(rng.uniform_int(0, 3));
    if (pick == 0) return Expr::constant(rng.uniform(-8.0, 8.0));
    if (pick == 1) return Expr::variable("t");
    return Expr::variable(kVars[rng.uniform_int(0, kPool - 1)]);
  }
  switch (rng.uniform_int(0, 5)) {
    case 0:
    case 1: {
      const auto op = static_cast<BinaryOp>(rng.uniform_int(0, 5));
      return Expr::binary(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1));
    }
    case 2: {
      const auto op = static_cast<UnaryOp>(rng.uniform_int(0, 7));
      return Expr::unary(op, random_expr(rng, depth - 1));
    }
    case 3: {
      const auto fn = rng.bernoulli(0.5) ? CallFn::kMin : CallFn::kMax;
      std::vector<ExprPtr> args;
      const int n = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < n; ++i) args.push_back(random_expr(rng, depth - 1));
      return Expr::call(fn, std::move(args));
    }
    case 4: {
      std::vector<ExprPtr> args;
      for (int i = 0; i < 3; ++i) args.push_back(random_expr(rng, depth - 1));
      return Expr::call(CallFn::kClamp, std::move(args));
    }
    default:
      return Expr::call(CallFn::kStep, {random_expr(rng, depth - 1)});
  }
}

/// Bitwise double equality (distinguishes NaN payloads and signed zeros the
/// way "same computation" should — both sides run identical operations).
bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub || (std::isnan(a) && std::isnan(b));
}

TEST(ExprCompile, MatchesTreeWalkAcrossRandomSeeds) {
  VariableRegistry reg;
  for (int i = 0; i < kBound; ++i) reg.set(kVars[i], 0.0, SimTime::zero());

  std::uint64_t evaluated = 0;
  std::uint64_t threw = 0;
  std::vector<double> stack;
  EvalScope scope;
  double clock = 1.0;  // registry histories must be appended in time order
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    Rng rng{seed};
    const ExprPtr expr = random_expr(rng, static_cast<int>(rng.uniform_int(1, 5)));
    const ExprProgram prog = ExprProgram::compile(*expr);

    // Each seed is probed at a few time points / variable assignments,
    // through the same rebound scope the engines reuse.
    for (int round = 0; round < 4; ++round) {
      clock += 1.0;
      for (int i = 0; i < kBound; ++i) {
        reg.set(kVars[i], rng.uniform(-5.0, 5.0), sec(clock));
      }
      scope.rebind(&reg, sec(clock + rng.uniform()));
      scope.set_epoch(sec(clock * rng.uniform()));

      double tree = 0.0;
      std::string tree_error;
      try {
        tree = oracle::eval(*expr, scope);
      } catch (const UnboundVariableError& e) {
        tree_error = e.what();
      }
      double compiled = 0.0;
      std::string compiled_error;
      try {
        compiled = prog.eval(scope, stack);
      } catch (const UnboundVariableError& e) {
        compiled_error = e.what();
      }

      ASSERT_EQ(tree_error, compiled_error)
          << "seed " << seed << ": " << expr->to_string();
      if (!tree_error.empty()) {
        ++threw;
        continue;
      }
      ++evaluated;
      ASSERT_TRUE(same_bits(tree, compiled))
          << "seed " << seed << ": " << expr->to_string() << " tree=" << tree
          << " compiled=" << compiled;
    }
  }
  // The generator must actually exercise both outcomes.
  EXPECT_GT(evaluated, 1000u);
  EXPECT_GT(threw, 100u);
}

TEST(ExprCompile, UnboundVariableReportsFirstInEvaluationOrder) {
  // a + (miss1 * miss2): the tree walker hits miss1 first; the program's
  // postfix order must fail on the same variable.
  const auto expr = Expr::add(
      Expr::variable("ec_a"),
      Expr::mul(Expr::variable("ec_miss1"), Expr::variable("ec_miss2")));
  VariableRegistry reg;
  reg.set("ec_a", 1.0, SimTime::zero());
  const EvalScope scope{&reg, sec(1), SimTime::zero()};
  std::vector<double> stack;
  const ExprProgram prog = ExprProgram::compile(*expr);

  std::string tree_error;
  try {
    (void)oracle::eval(*expr, scope);
  } catch (const UnboundVariableError& e) {
    tree_error = e.what();
  }
  std::string compiled_error;
  try {
    (void)prog.eval(scope, stack);
  } catch (const UnboundVariableError& e) {
    compiled_error = e.what();
  }
  ASSERT_FALSE(tree_error.empty());
  EXPECT_EQ(tree_error, compiled_error);
  EXPECT_NE(tree_error.find("ec_miss1"), std::string::npos);
}

TEST(ExprCompile, ProgramReportsItsVariables) {
  const auto expr = Expr::add(
      Expr::mul(Expr::variable("ec_b"), Expr::variable("t")),
      Expr::sub(Expr::variable("ec_a"), Expr::variable("ec_b")));
  const ExprProgram prog = ExprProgram::compile(*expr);
  const auto vars = prog.variables();
  ASSERT_EQ(vars.size(), 3u);  // ec_a, ec_b, t — deduplicated
  EXPECT_TRUE(std::binary_search(vars.begin(), vars.end(), elapsed_time_var_id()));
  EXPECT_TRUE(
      std::binary_search(vars.begin(), vars.end(), VariableTable::instance().intern("ec_a")));
  EXPECT_TRUE(
      std::binary_search(vars.begin(), vars.end(), VariableTable::instance().intern("ec_b")));
}

TEST(ExprCompile, EmptyProgramThrows) {
  const ExprProgram prog;
  std::vector<double> stack;
  const EvalScope scope;
  EXPECT_THROW((void)prog.eval(scope, stack), std::logic_error);
}

TEST(ExprCompile, CompiledPredicateMirrorsMaterialize) {
  // Bound case, unbound case, and arithmetic-NaN case must all agree with
  // the oracle's materialize + static matching.
  VariableRegistry reg;
  reg.set("ec_a", 3.0, SimTime::zero());
  EvalScope scope{&reg, sec(2), SimTime::zero()};
  std::vector<double> stack;

  const Predicate bound_pred{"x", RelOp::kLe, Expr::mul(Expr::variable("ec_a"),
                                                        Expr::constant(2.0))};
  const CompiledPredicate cp{bound_pred};
  bool unbound = true;
  EXPECT_DOUBLE_EQ(cp.bound(scope, stack, unbound), 6.0);
  EXPECT_FALSE(unbound);
  EXPECT_TRUE(cp.matches(Value{5.0}, scope, stack));
  EXPECT_FALSE(cp.matches(Value{7.0}, scope, stack));

  const Predicate unbound_pred{"x", RelOp::kNe, Expr::variable("ec_missing_forever")};
  const CompiledPredicate cu{unbound_pred};
  (void)cu.bound(scope, stack, unbound);
  EXPECT_TRUE(unbound);
  // Unbound fails closed even for kNe (materialize would emit kLt vs NaN).
  EXPECT_FALSE(cu.matches(Value{1.0}, scope, stack));
  EXPECT_FALSE(oracle::materialize(unbound_pred, scope).matches(Value{1.0}));

  // 0/0 -> NaN with the operator kept: kNe matches (NaN is incomparable),
  // exactly like matching the materialized predicate.
  const Predicate nan_pred{"x", RelOp::kNe,
                           Expr::div(Expr::constant(0.0), Expr::constant(0.0))};
  // div(0,0) is constant-folded only when finite, so it stays an expression.
  ASSERT_TRUE(nan_pred.is_evolving());
  const CompiledPredicate cn{nan_pred};
  EXPECT_TRUE(cn.matches(Value{1.0}, scope, stack));
  EXPECT_TRUE(oracle::materialize(nan_pred, scope).matches(Value{1.0}));
}

}  // namespace
}  // namespace evps
