// Micro-benchmarks: evolution expression parsing and evaluation — the
// per-predicate cost that LEES pays on every publication.
#include <benchmark/benchmark.h>

#include <vector>

#include "expr/parser.hpp"
#include "gbench_main.hpp"
#include "expr/program.hpp"
#include "expr/variable_registry.hpp"
#include "message/predicate.hpp"

namespace {

using namespace evps;

void BM_ParseSimple(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_expr("-3 + t"));
  }
}
BENCHMARK(BM_ParseSimple);

void BM_ParseGameSubscription(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_expr("(3 + 1.5 * t) * v"));
  }
}
BENCHMARK(BM_ParseGameSubscription);

// --- Compiled evaluation: the flat ExprProgram the engine hot paths run ---

void BM_CompileProgram(benchmark::State& state) {
  const auto expr = parse_expr("(3 + 1.5 * t) * v");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExprProgram::compile(*expr));
  }
}
BENCHMARK(BM_CompileProgram);

void BM_EvalCompiledLinear(benchmark::State& state) {
  const ExprProgram prog = ExprProgram::compile(*parse_expr("-3 + 1.5 * t"));
  const EvalScope scope{nullptr, SimTime::from_seconds(2), SimTime::zero()};
  std::vector<double> stack;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prog.eval(scope, stack));
  }
}
BENCHMARK(BM_EvalCompiledLinear);

void BM_EvalCompiledVisibilityScaled(benchmark::State& state) {
  const ExprProgram prog = ExprProgram::compile(*parse_expr("(3 + 1.5 * t) * v"));
  VariableRegistry registry;
  registry.set("v", 0.5, SimTime::zero());
  const EvalScope scope{&registry, SimTime::from_seconds(2), SimTime::zero()};
  std::vector<double> stack;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prog.eval(scope, stack));
  }
}
BENCHMARK(BM_EvalCompiledVisibilityScaled);

void BM_EvalCompiledReboundScope(benchmark::State& state) {
  // The engine pattern: one scope rebound per publication, then evaluated.
  const ExprProgram prog = ExprProgram::compile(*parse_expr("(3 + 1.5 * t) * v"));
  VariableRegistry registry;
  registry.set("v", 0.5, SimTime::zero());
  EvalScope scope;
  std::vector<double> stack;
  for (auto _ : state) {
    scope.rebind(&registry, SimTime::from_seconds(2));
    benchmark::DoNotOptimize(prog.eval(scope, stack));
  }
}
BENCHMARK(BM_EvalCompiledReboundScope);

void BM_EvalCompiledDeepRegistryHistory(benchmark::State& state) {
  const ExprProgram prog = ExprProgram::compile(*parse_expr("10 * v"));
  VariableRegistry registry;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    registry.set("v", i * 0.001, SimTime::from_seconds(i));
  }
  const EvalScope scope{&registry, SimTime::from_seconds(state.range(0) / 2.0),
                        SimTime::zero()};
  std::vector<double> stack;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prog.eval(scope, stack));
  }
}
BENCHMARK(BM_EvalCompiledDeepRegistryHistory)->Arg(16)->Arg(256)->Arg(4096);

void BM_CompiledPredicateBound(benchmark::State& state) {
  const CompiledPredicate pred{Predicate{"x", RelOp::kGe, parse_expr("-3 + 1.5 * t")}};
  const EvalScope scope{nullptr, SimTime::from_seconds(2), SimTime::zero()};
  std::vector<double> stack;
  bool unbound = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.bound(scope, stack, unbound));
  }
}
BENCHMARK(BM_CompiledPredicateBound);

}  // namespace

int main(int argc, char** argv) { return evps_bench::run(argc, argv, "BENCH_expr.json"); }
