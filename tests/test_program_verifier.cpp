// ExprProgram verifier (analysis/verifier.hpp): hand-assembled malformed
// programs must be rejected with a pinpointed diagnostic, every
// compiler-produced program must pass, and the engine install gate must
// refuse to install state around a program that fails verification.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "common/rng.hpp"
#include "evolving/engine.hpp"
#include "expr/ast.hpp"
#include "expr/program.hpp"
#include "test_util.hpp"

namespace evps {
namespace {

using Op = ExprProgram::Op;
using Insn = ExprProgram::Insn;

Insn push(double k) { return Insn{Op::kPushConst, 0, kInvalidVarId, k}; }
Insn load(VarId var) { return Insn{Op::kLoadVar, 0, var, 0.0}; }
Insn op(Op o, std::uint32_t argc = 0) { return Insn{o, argc, kInvalidVarId, 0.0}; }

TEST(ProgramVerifier, EmptyProgramRejected) {
  const auto r = verify_program(ExprProgram{});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("empty"), std::string::npos);
}

TEST(ProgramVerifier, StackUnderflowRejected) {
  // kAdd with a single operand on the stack.
  const auto prog = ExprProgram::assemble({push(1.0), op(Op::kAdd)}, 2);
  const auto r = verify_program(prog);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.insn_index, 1u);
  EXPECT_NE(r.message.find("underflow"), std::string::npos);

  // Unary with nothing at all.
  const auto r2 = verify_program(ExprProgram::assemble({op(Op::kNeg)}, 1));
  ASSERT_FALSE(r2.ok);
  EXPECT_EQ(r2.insn_index, 0u);
}

TEST(ProgramVerifier, BadArgcRejected) {
  // kMin with argc == 0 can never fold anything.
  const auto zero = ExprProgram::assemble({push(1.0), op(Op::kMin, 0)}, 1);
  ASSERT_FALSE(verify_program(zero).ok);
  // kClamp must pop exactly 3.
  const auto clamp =
      ExprProgram::assemble({push(1.0), push(2.0), op(Op::kClamp, 2)}, 2);
  ASSERT_FALSE(verify_program(clamp).ok);
  // kStep must pop exactly 1.
  const auto step = ExprProgram::assemble({push(1.0), push(2.0), op(Op::kStep, 2)}, 2);
  ASSERT_FALSE(verify_program(step).ok);
  // kMin needing more operands than are on the stack.
  const auto deep = ExprProgram::assemble({push(1.0), push(2.0), op(Op::kMin, 3)}, 2);
  ASSERT_FALSE(verify_program(deep).ok);
}

TEST(ProgramVerifier, UnknownOpcodeRejected) {
  Insn bogus;
  bogus.op = static_cast<Op>(200);
  const auto r = verify_program(ExprProgram::assemble({bogus}, 1));
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("opcode"), std::string::npos);
}

TEST(ProgramVerifier, UnregisteredVarIdRejected) {
  // kInvalidVarId and ids past the interning table both fail.
  const auto invalid = ExprProgram::assemble({load(kInvalidVarId)}, 1);
  ASSERT_FALSE(verify_program(invalid).ok);
  const auto past_end =
      ExprProgram::assemble({load(static_cast<VarId>(VariableTable::instance().size()))}, 1);
  const auto r = verify_program(past_end);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("VarId"), std::string::npos);
}

TEST(ProgramVerifier, WrongFinalDepthRejected) {
  // Two values left on the stack: not a single-result program.
  const auto two = ExprProgram::assemble({push(1.0), push(2.0)}, 2);
  const auto r = verify_program(two);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.insn_index, 2u);  // whole-program fault reports size()
}

TEST(ProgramVerifier, UnderstatedMaxStackRejected) {
  // Structurally fine postfix for 1 + 2, but max_stack claims 1.
  const auto prog = ExprProgram::assemble({push(1.0), push(2.0), op(Op::kAdd)}, 1);
  const auto r = verify_program(prog);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("max_stack"), std::string::npos);
  // The same code with an honest (or generous) bound passes.
  EXPECT_TRUE(verify_program(ExprProgram::assemble({push(1.0), push(2.0), op(Op::kAdd)}, 2)).ok);
  EXPECT_TRUE(verify_program(ExprProgram::assemble({push(1.0), push(2.0), op(Op::kAdd)}, 8)).ok);
}

TEST(ProgramVerifier, VerifyOrThrowCarriesDiagnostic) {
  const auto bad = ExprProgram::assemble({push(1.0), op(Op::kAdd)}, 2);
  try {
    verify_or_throw(bad);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.insn_index(), 1u);
    EXPECT_NE(std::string(e.what()).find("verification failed"), std::string::npos);
  }
}

// Mirror of test_expr_compile.cpp's generator: anything the compiler can
// produce must verify, across every node kind and >1000 seeds.
ExprPtr random_expr(Rng& rng, int depth) {
  if (depth <= 0 || rng.bernoulli(0.25)) {
    const int pick = static_cast<int>(rng.uniform_int(0, 2));
    if (pick == 0) return Expr::constant(rng.uniform(-8.0, 8.0));
    if (pick == 1) return Expr::variable("t");
    return Expr::variable("pv_var" + std::to_string(rng.uniform_int(0, 5)));
  }
  switch (rng.uniform_int(0, 5)) {
    case 0:
    case 1:
      return Expr::binary(static_cast<BinaryOp>(rng.uniform_int(0, 5)),
                          random_expr(rng, depth - 1), random_expr(rng, depth - 1));
    case 2:
      return Expr::unary(static_cast<UnaryOp>(rng.uniform_int(0, 7)),
                         random_expr(rng, depth - 1));
    case 3: {
      std::vector<ExprPtr> args;
      const int n = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < n; ++i) args.push_back(random_expr(rng, depth - 1));
      return Expr::call(rng.bernoulli(0.5) ? CallFn::kMin : CallFn::kMax, std::move(args));
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

TEST(ProgramVerifier, EveryCompiledProgramVerifies) {
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    Rng rng{seed};
    const ExprPtr expr = random_expr(rng, static_cast<int>(rng.uniform_int(1, 6)));
    const ExprProgram prog = ExprProgram::compile(*expr);
    const auto r = verify_program(prog);
    ASSERT_TRUE(r.ok) << "seed " << seed << ": " << expr->to_string() << " — " << r.message
                      << " at insn " << r.insn_index;
  }
}

TEST(ProgramVerifier, EnginesInstallVerifiedPrograms) {
  // Every evolving engine installs through compile_evolving, which runs
  // verify_or_throw on every compiled evolving predicate; well-formed
  // subscriptions must sail through every engine kind and still match.
  for (const EngineKind kind :
       {EngineKind::kVes, EngineKind::kLees, EngineKind::kClees, EngineKind::kHybrid}) {
    Simulator sim;
    testutil::SimHost host{sim};
    EngineConfig config;
    config.kind = kind;
    const auto engine = make_engine(config);
    engine->add(testutil::make_sub(1, "x >= -3 + t; x <= 3 + t"), NodeId{1}, host, false);
    engine->add(testutil::make_sub(2, "x <= clamp(min(4, 9), 0, step(2))"), NodeId{2}, host,
                false);
    ASSERT_EQ(engine->size(), 2u) << to_string(kind);

    Publication pub;
    pub.set("x", Value{0.5});
    pub.set_entry_time(sim.now());
    const auto dests = testutil::match(*engine, host, pub);
    EXPECT_EQ(dests.size(), 2u) << to_string(kind);
  }
}

}  // namespace
}  // namespace evps
