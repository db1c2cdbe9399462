// Flat compiled form of evolution expressions — the library's only
// expression evaluator.
//
// `ExprProgram` lowers an `Expr` once, at subscription install time, into a
// contiguous postfix instruction vector with variable operands pre-resolved
// to interned `VarId`s. Evaluation is a single linear walk over the buffer
// with a small caller-owned value stack: integer loads, no pointer chasing,
// no hashing, and no heap allocation in steady state (the stack is reused
// across calls and its required depth is precomputed by the compiler). The
// per-publication lazy-evaluation hot path (LEES/CLEES, paper Fig. 8), VES
// version refresh and the parser's constant folding all run through it.
//
// A tree-walking evaluator lives only in the tests (tests/expr_oracle.hpp),
// as the differential oracle: compiled evaluation must agree with it
// bit-for-bit on the same scope, including unbound-variable error behaviour
// (see tests/test_expr_compile.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/variable_table.hpp"
#include "expr/ast.hpp"
#include "expr/variable_registry.hpp"

namespace evps {

class ExprProgram {
 public:
  /// Stack-machine opcodes. Nullary pushes carry an immediate; n-ary ops pop
  /// their operands and push one result.
  enum class Op : std::uint8_t {
    kPushConst,  // push imm.k
    kLoadVar,    // push scope.lookup(imm.var)
    // Unary (pop 1, push 1).
    kNeg, kAbs, kFloor, kCeil, kSqrt, kSin, kCos, kSign,
    // Binary (pop 2, push 1).
    kAdd, kSub, kMul, kDiv, kMod, kPow,
    // Calls: kMin/kMax fold imm.argc operands; kClamp pops 3; kStep pops 1.
    kMin, kMax, kClamp, kStep,
  };

  struct Insn {
    Op op = Op::kPushConst;
    std::uint32_t argc = 0;  // kMin/kMax operand count
    VarId var = kInvalidVarId;
    double k = 0.0;
  };

  ExprProgram() = default;

  /// Lower `expr` into a flat program. Variables are interned now, so
  /// evaluation never sees a name.
  [[nodiscard]] static ExprProgram compile(const Expr& expr);
  [[nodiscard]] static ExprProgram compile(const ExprPtr& expr) { return compile(*expr); }

  /// Build a program from raw instructions without any checking. For tests
  /// and tools that need to construct malformed programs on purpose; real
  /// code paths go through compile() + verify_program (analysis/verifier.hpp)
  /// before evaluating.
  [[nodiscard]] static ExprProgram assemble(std::vector<Insn> code, std::size_t max_stack);

  /// Evaluate against `scope` using `stack` as scratch (cleared on entry;
  /// grown to max_stack() once, then reused allocation-free). Throws
  /// UnboundVariableError on the first unbound variable in evaluation
  /// order.
  double eval(const EvalScope& scope, std::vector<double>& stack) const;

  /// Convenience for cold paths and tests: owns a transient stack.
  [[nodiscard]] double eval(const EvalScope& scope) const {
    std::vector<double> stack;
    return eval(scope, stack);
  }

  [[nodiscard]] bool empty() const noexcept { return code_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return code_.size(); }
  /// Deepest value-stack use of any prefix of the program.
  [[nodiscard]] std::size_t max_stack() const noexcept { return max_stack_; }
  [[nodiscard]] const std::vector<Insn>& code() const noexcept { return code_; }

  /// Distinct variables referenced, ascending (no duplicates).
  [[nodiscard]] std::vector<VarId> variables() const;

 private:
  std::vector<Insn> code_;
  std::size_t max_stack_ = 0;
};

}  // namespace evps
