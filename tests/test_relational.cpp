// Unit tests for the relational (octagon) refinement layer:
//
//   * Octagon — closure transitivity, strengthening, strict-cycle
//     infeasibility, entailment strictness;
//   * eval_relational — certified diff/sum bounds through the transfer pass;
//   * covers_relational — cross-attribute covering the per-attribute shapes
//     cannot prove (moving AoIs, syntactically identical evolving bounds);
//   * analyzer verdicts — relationally-unsatisfiable rejection and
//     relationally-redundant flagging, and their severity ordering;
//   * the 1-ulp fail-closed regression — exact endpoint arithmetic keeps
//     `x <= v + 1` provably covering `x <= 5` for v in [0, 4].
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "analysis/analyzer.hpp"
#include "analysis/covering.hpp"
#include "analysis/covering_index.hpp"
#include "analysis/octagon.hpp"
#include "analysis/relational.hpp"
#include "common/variable_table.hpp"
#include "message/codec.hpp"

namespace evps {
namespace {

TEST(Octagon, ClosureDerivesTransitiveDifferenceBounds) {
  // x0 - x1 <= 1, x1 - x2 <= 2  =>  x0 - x2 <= 3.
  Octagon oct(3);
  oct.add_pair(0, +1, 1, -1, 1.0, false);
  oct.add_pair(1, +1, 2, -1, 2.0, false);
  oct.close();
  EXPECT_FALSE(oct.unsatisfiable());
  EXPECT_TRUE(oct.entails_pair(0, +1, 2, -1, 3.0, false));
  EXPECT_TRUE(oct.entails_pair(0, +1, 2, -1, 3.5, false));
  EXPECT_FALSE(oct.entails_pair(0, +1, 2, -1, 2.9, false));
  // Nothing is known about the reverse direction.
  EXPECT_FALSE(oct.entails_pair(2, +1, 0, -1, 100.0, false));
}

TEST(Octagon, UnaryBoundPropagatesThroughPairs) {
  // x0 <= 5 and x1 - x0 <= 0  =>  x1 <= 5.
  Octagon oct(2);
  oct.add_upper(0, 5.0, false);
  oct.add_pair(1, +1, 0, -1, 0.0, false);
  oct.close();
  EXPECT_TRUE(oct.entails_upper(1, 5.0, false));
  EXPECT_FALSE(oct.entails_upper(1, 5.0, true));  // nothing strict anywhere
  EXPECT_FALSE(oct.entails_upper(1, 4.0, false));
}

TEST(Octagon, ContradictoryDifferenceIsUnsatisfiable) {
  // x0 - x1 <= 0 and x1 - x0 <= -10 (i.e. x0 >= x1 + 10).
  Octagon oct(2);
  oct.add_pair(0, +1, 1, -1, 0.0, false);
  oct.add_pair(0, -1, 1, +1, -10.0, false);
  oct.close();
  EXPECT_TRUE(oct.unsatisfiable());
}

TEST(Octagon, StrictZeroCycleIsUnsatisfiable) {
  // x0 < 5 and x0 >= 5: feasible without strictness, infeasible with it.
  Octagon strict(1);
  strict.add_upper(0, 5.0, true);
  strict.add_lower(0, 5.0, false);
  strict.close();
  EXPECT_TRUE(strict.unsatisfiable());

  Octagon ok(1);
  ok.add_upper(0, 5.0, false);
  ok.add_lower(0, 5.0, false);
  ok.close();
  EXPECT_FALSE(ok.unsatisfiable());
}

TEST(Octagon, StrictEntailment) {
  Octagon oct(1);
  oct.add_upper(0, 5.0, true);  // x < 5
  oct.close();
  EXPECT_TRUE(oct.entails_upper(0, 5.0, true));
  EXPECT_TRUE(oct.entails_upper(0, 5.0, false));  // x < 5 implies x <= 5
  Octagon weak(1);
  weak.add_upper(0, 5.0, false);  // x <= 5
  weak.close();
  EXPECT_TRUE(weak.entails_upper(0, 5.0, false));
  EXPECT_FALSE(weak.entails_upper(0, 5.0, true));  // x <= 5 does not imply x < 5
}

TEST(EvalRelational, TracksExactShiftAgainstVariable) {
  VariableRegistry reg;
  reg.declare_range("rl_ev", 0.0, 4.0);
  const VarId v = VariableTable::instance().intern("rl_ev");
  const Predicate pred = parse_predicate("rlx <= rl_ev + 1");
  const ExprProgram prog = ExprProgram::compile(*pred.fun());
  const RelBounds rb = eval_relational(prog, RegistryVarBounds(reg), {v});
  ASSERT_TRUE(rb.diff.count(v));
  // The certified shift brackets 1 tightly; the sub-ulp slack absorbs the
  // evaluator's own rounding of fl(v + 1) (widen_err).
  const Interval d = rb.diff.at(v);
  EXPECT_LE(d.lo, 1.0);
  EXPECT_GE(d.hi, 1.0);
  EXPECT_LE(d.hi - d.lo, 4 * std::numeric_limits<double>::epsilon() * 5.0);
  EXPECT_EQ(rb.value.lo, 1.0);
  EXPECT_EQ(rb.value.hi, 5.0);
}

TEST(EvalRelational, MultiplicationDropsRelationsButKeepsEnvelope) {
  VariableRegistry reg;
  reg.declare_range("rl_ev", 0.0, 4.0);
  const VarId v = VariableTable::instance().intern("rl_ev");
  const Predicate pred = parse_predicate("rlx <= 2 * rl_ev");
  const ExprProgram prog = ExprProgram::compile(*pred.fun());
  const RelBounds rb = eval_relational(prog, RegistryVarBounds(reg), {v});
  EXPECT_FALSE(rb.diff.count(v));
  EXPECT_FALSE(rb.sum.count(v));
  EXPECT_LE(rb.value.lo, 0.0);
  EXPECT_GE(rb.value.hi, 8.0);
}

VariableRegistry moving_center_registry() {
  VariableRegistry reg;
  reg.declare_range("rl_c", -100.0, 100.0);
  reg.set("rl_c", 10.0, SimTime::zero());
  return reg;
}

TEST(RelationalCovering, MovingZoneCoversNarrowerMovingZone) {
  const VariableRegistry reg = moving_center_registry();
  Subscription wide = parse_subscription("[tt=0.5] rlu >= rl_c - 60; rlu <= rl_c + 60");
  wide.set_id(SubscriptionId{1});
  Subscription narrow = parse_subscription("[tt=0.5] rlu >= rl_c - 30; rlu <= rl_c + 30");
  narrow.set_id(SubscriptionId{2});

  // The per-attribute inner shape of a wide-ranging moving zone is empty —
  // only the octagon sees that both zones track the same centre.
  EXPECT_EQ(covers(wide, narrow, reg, /*relational=*/false), CoverVerdict::kUnknown);
  EXPECT_EQ(covers(wide, narrow, reg), CoverVerdict::kCovers);
  // Never the other way around.
  EXPECT_EQ(covers(narrow, wide, reg), CoverVerdict::kUnknown);
}

TEST(RelationalCovering, IdenticalEvolvingBoundProvedBySyntacticShortcut) {
  const VariableRegistry reg = moving_center_registry();
  // `3 * rl_c` goes through kMul, which certifies no relational bounds —
  // only instruction-identical code on both sides can discharge it.
  Subscription a = parse_subscription("[tt=0.5] rlu <= 3 * rl_c");
  a.set_id(SubscriptionId{1});
  Subscription b = parse_subscription("[tt=0.5] rlu <= 3 * rl_c; rlu >= 0");
  b.set_id(SubscriptionId{2});
  EXPECT_EQ(covers(a, b, reg, /*relational=*/false), CoverVerdict::kUnknown);
  EXPECT_EQ(covers(a, b, reg), CoverVerdict::kCovers);

  // A strictly tighter operator on B's side also satisfies A's.
  Subscription b2 = parse_subscription("[tt=0.5] rlu < 3 * rl_c; rlu >= 0");
  b2.set_id(SubscriptionId{3});
  EXPECT_EQ(covers(a, b2, reg), CoverVerdict::kCovers);
  // The converse (A strict, B non-strict) must NOT be provable.
  Subscription a2 = parse_subscription("[tt=0.5] rlu < 3 * rl_c");
  a2.set_id(SubscriptionId{4});
  EXPECT_EQ(covers(a2, b, reg), CoverVerdict::kUnknown);
}

TEST(RelationalCovering, TimeDependentBoundsAreNotShortcut) {
  // Identical programs referencing `t` must not match syntactically: the two
  // subscriptions age from different epochs.
  VariableRegistry reg;
  Subscription a = parse_subscription("[tt=0.5] rlu <= 3 * t");
  a.set_id(SubscriptionId{1});
  Subscription b = parse_subscription("[tt=0.5] rlu <= 3 * t; rlu >= 0");
  b.set_id(SubscriptionId{2});
  EXPECT_EQ(covers(a, b, reg), CoverVerdict::kUnknown);
}

TEST(RelationalCovering, IndexSuppressesRelationallyCoveredSubscription) {
  const VariableRegistry reg = moving_center_registry();
  Subscription wide = parse_subscription("[tt=0.5] rlu >= rl_c - 60; rlu <= rl_c + 60");
  wide.set_id(SubscriptionId{1});
  Subscription narrow = parse_subscription("[tt=0.5] rlu >= rl_c - 30; rlu <= rl_c + 30");
  narrow.set_id(SubscriptionId{2});

  CoveringIndex relational_index;
  EXPECT_FALSE(relational_index.add(wide.id(), summarize(wide, reg)).parent.valid());
  const auto added = relational_index.add(narrow.id(), summarize(narrow, reg));
  EXPECT_EQ(added.parent, SubscriptionId{1});
  EXPECT_GE(relational_index.stats().relational, 1u);

  CoveringIndex plain_index{/*relational=*/false};
  EXPECT_FALSE(plain_index.add(wide.id(), summarize(wide, reg)).parent.valid());
  EXPECT_FALSE(plain_index.add(narrow.id(), summarize(narrow, reg)).parent.valid());
  EXPECT_EQ(plain_index.stats().relational, 0u);
}

TEST(AnalyzerRelational, CrossAttributeInfeasibilityIsRelUnsatisfiable) {
  VariableRegistry reg;
  reg.declare_range("rl_c", -100.0, 100.0);
  // Per attribute both predicates are satisfiable against the envelope of
  // rl_c; together they demand rlu <= rl_c and rlu >= rl_c + 10.
  Subscription sub =
      parse_subscription("[tt=0.5] rlu <= rl_c; rlu >= rl_c + 10");
  sub.set_id(SubscriptionId{1});
  const SubscriptionAnalysis analysis = analyze_subscription(sub, reg);
  EXPECT_EQ(analysis.verdict, Verdict::kRelUnsatisfiable);
  EXPECT_EQ(to_string(analysis.verdict), "relationally-unsatisfiable");
}

TEST(AnalyzerRelational, EntailedPredicateIsRelRedundant) {
  VariableRegistry reg;
  reg.declare_range("rl_c", -100.0, 100.0);
  reg.set("rl_c", 0.0, SimTime::zero());
  Subscription sub = parse_subscription("[tt=0.5] rlu <= rl_c; rlu <= rl_c + 5");
  sub.set_id(SubscriptionId{1});
  const SubscriptionAnalysis analysis = analyze_subscription(sub, reg);
  EXPECT_EQ(analysis.verdict, Verdict::kRelRedundant);
  EXPECT_EQ(analysis.redundant_predicate, 1);
  EXPECT_EQ(to_string(analysis.verdict), "relationally-redundant");
}

TEST(AnalyzerRelational, TightMovingZoneIsNotRedundant) {
  VariableRegistry reg;
  reg.declare_range("rl_c", -100.0, 100.0);
  reg.set("rl_c", 0.0, SimTime::zero());
  Subscription sub = parse_subscription("[tt=0.5] rlu >= rl_c - 30; rlu <= rl_c + 30");
  sub.set_id(SubscriptionId{1});
  const SubscriptionAnalysis analysis = analyze_subscription(sub, reg);
  EXPECT_EQ(analysis.verdict, Verdict::kOk);
}

TEST(AnalyzerRelational, SeverityOrdering) {
  EXPECT_GT(severity(Verdict::kMalformed), severity(Verdict::kUnsatisfiable));
  EXPECT_GT(severity(Verdict::kUnsatisfiable), severity(Verdict::kRelUnsatisfiable));
  EXPECT_GT(severity(Verdict::kRelUnsatisfiable), severity(Verdict::kAdUncovered));
  EXPECT_GT(severity(Verdict::kAdUncovered), severity(Verdict::kConstant));
  EXPECT_GT(severity(Verdict::kConstant), severity(Verdict::kRelRedundant));
  EXPECT_GT(severity(Verdict::kRelRedundant), severity(Verdict::kOk));
}

TEST(ExactEndpoints, ExactShiftEnvelopeHasCrispBounds) {
  VariableRegistry reg;
  reg.declare_range("rl_ev", 0.0, 4.0);
  const Predicate pred = parse_predicate("rlx <= rl_ev + 1");
  const ExprProgram prog = ExprProgram::compile(*pred.fun());
  const Interval env = eval_interval(prog, RegistryVarBounds(reg));
  EXPECT_EQ(env.lo, 1.0);  // no 1-ulp fail-closed widening on exact sums
  EXPECT_EQ(env.hi, 5.0);
}

TEST(ExactEndpoints, ExactEvolvingBoundCoversMatchingStaticBound) {
  // Regression for the 1-ulp fail-closed gap: the guaranteed side of
  // `rlx <= rl_ev + 1` is exactly 1, so it provably covers `rlx <= 1`
  // without the octagon refinement.
  VariableRegistry reg;
  reg.declare_range("rl_ev", 0.0, 4.0);
  reg.set("rl_ev", 2.0, SimTime::zero());
  Subscription a = parse_subscription("[tt=0.5] rlx <= rl_ev + 1");
  a.set_id(SubscriptionId{1});
  Subscription b = parse_subscription("rlx <= 1");
  b.set_id(SubscriptionId{2});
  EXPECT_EQ(covers(a, b, reg, /*relational=*/false), CoverVerdict::kCovers);
}

TEST(ExactEndpoints, InexactArithmeticStillWidens) {
  // 0.1 + 0.2 is inexact in binary; the envelope must strictly contain it.
  VariableRegistry reg;
  reg.declare_range("rl_ev", 0.1, 0.1);
  const Predicate pred = parse_predicate("rlx <= rl_ev + 0.2");
  const ExprProgram prog = ExprProgram::compile(*pred.fun());
  const Interval env = eval_interval(prog, RegistryVarBounds(reg));
  // Degenerate operands evaluate point-exactly (the evaluator computes the
  // same rounded double), so this stays a point...
  EXPECT_EQ(env.lo, env.hi);
  // ...but a genuine range with inexact endpoint arithmetic must widen.
  VariableRegistry reg2;
  reg2.declare_range("rl_ev2", 0.0, 0.1);
  const Predicate pred2 = parse_predicate("rlx <= rl_ev2 + 0.2");
  const ExprProgram prog2 = ExprProgram::compile(*pred2.fun());
  const Interval env2 = eval_interval(prog2, RegistryVarBounds(reg2));
  EXPECT_EQ(env2.lo, 0.2);  // 0 + 0.2 is exact: no widening
  EXPECT_GT(env2.hi, 0.1 + 0.2);  // 0.1 + 0.2 is inexact: widened up
}

}  // namespace
}  // namespace evps
