// Randomized round-trip properties for the text codec and expression
// printer: serialise -> parse must reproduce structurally equal objects.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "expr/parser.hpp"
#include "expr/program.hpp"
#include "expr_oracle.hpp"
#include "message/codec.hpp"

namespace evps {
namespace {

ExprPtr random_expr(Rng& rng, int depth) {
  if (depth <= 0 || rng.bernoulli(0.3)) {
    if (rng.bernoulli(0.5)) {
      // Constants kept integral-ish so printing is exact.
      return Expr::constant(static_cast<double>(rng.uniform_int(-1000, 1000)) / 4.0);
    }
    const char* names[] = {"t", "v", "mode", "outgoingBw", "stockLevel"};
    return Expr::variable(names[rng.uniform_int(0, 4)]);
  }
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      const auto op = static_cast<BinaryOp>(rng.uniform_int(0, 5));
      return Expr::binary(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1));
    }
    case 1: {
      const auto op = static_cast<UnaryOp>(rng.uniform_int(0, 7));
      return Expr::unary(op, random_expr(rng, depth - 1));
    }
    case 2: {
      const auto fn = rng.bernoulli(0.5) ? CallFn::kMin : CallFn::kMax;
      std::vector<ExprPtr> args;
      const auto n = rng.uniform_int(1, 3);
      for (int i = 0; i < n; ++i) args.push_back(random_expr(rng, depth - 1));
      return Expr::call(fn, std::move(args));
    }
    default:
      return Expr::call(CallFn::kClamp, {random_expr(rng, depth - 1),
                                         random_expr(rng, depth - 1),
                                         random_expr(rng, depth - 1)});
  }
}

Value random_value(Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return Value{rng.uniform_int(-100000, 100000)};
    case 1: return Value{static_cast<double>(rng.uniform_int(-100000, 100000)) / 8.0};
    default: {
      std::string s;
      const auto len = rng.uniform_int(0, 12);
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
      }
      return Value{std::move(s)};
    }
  }
}

class CodecRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecRoundTrip, ExpressionPrintParse) {
  Rng rng{GetParam()};
  for (int i = 0; i < 200; ++i) {
    const ExprPtr original = random_expr(rng, 4);
    // Constant folding in the parser may simplify constant subtrees, so
    // compare by evaluation under a fixed environment instead of structure
    // when the tree contains constants; structural equality must hold for
    // the reparse of the reparse (a fixpoint).
    const ExprPtr once = parse_expr(original->to_string());
    const ExprPtr twice = parse_expr(once->to_string());
    ASSERT_TRUE(once->equals(*twice)) << original->to_string();

    const EvalScope env = oracle::scope_of({{"t", 1.25},
                                            {"v", 0.5},
                                            {"mode", 1.0},
                                            {"outgoingBw", 0.25},
                                            {"stockLevel", 0.75}});
    const double a = ExprProgram::compile(original).eval(env);
    const double b = ExprProgram::compile(once).eval(env);
    if (std::isnan(a)) {
      ASSERT_TRUE(std::isnan(b)) << original->to_string();
    } else if (std::isfinite(a)) {
      ASSERT_NEAR(a, b, std::abs(a) * 1e-9 + 1e-9) << original->to_string();
    } else {
      ASSERT_EQ(a, b) << original->to_string();
    }
  }
}

TEST_P(CodecRoundTrip, PublicationSerializeParse) {
  Rng rng{GetParam() ^ 0xabcdef};
  for (int i = 0; i < 200; ++i) {
    Publication pub;
    const auto n = rng.uniform_int(0, 6);
    for (int a = 0; a < n; ++a) {
      pub.set("attr" + std::to_string(rng.uniform_int(0, 9)), random_value(rng));
    }
    const Publication reparsed = parse_publication(serialize(pub));
    ASSERT_EQ(reparsed, pub) << serialize(pub);
    // Type preservation, not just value equality.
    for (const auto& [name, value] : pub.attributes()) {
      const Value* r = reparsed.get(name);
      ASSERT_NE(r, nullptr);
      ASSERT_EQ(r->is_string(), value.is_string()) << serialize(pub);
      ASSERT_EQ(r->is_int(), value.is_int()) << serialize(pub);
    }
  }
}

TEST_P(CodecRoundTrip, SubscriptionSerializeParse) {
  Rng rng{GetParam() ^ 0x5eed5};
  for (int i = 0; i < 100; ++i) {
    Subscription sub;
    const auto n = rng.uniform_int(1, 5);
    for (int k = 0; k < n; ++k) {
      const auto op = static_cast<RelOp>(rng.uniform_int(0, 5));
      const std::string attr = "a" + std::to_string(rng.uniform_int(0, 5));
      if (rng.bernoulli(0.4)) {
        sub.add(Predicate{attr, op, random_expr(rng, 3)});
      } else {
        sub.add(Predicate{attr, op, random_value(rng)});
      }
    }
    sub.set_mei(Duration::millis(rng.uniform_int(1, 5000)));
    sub.set_tt(Duration::millis(rng.uniform_int(1, 5000)));
    sub.set_validity(Duration::millis(rng.uniform_int(0, 60000)));

    const Subscription once = parse_subscription(serialize(sub));
    const Subscription twice = parse_subscription(serialize(once));
    ASSERT_EQ(once.predicates().size(), sub.predicates().size()) << serialize(sub);
    // Predicate fixpoint (constant folding may alter the first parse).
    for (std::size_t k = 0; k < once.predicates().size(); ++k) {
      ASSERT_EQ(once.predicates()[k], twice.predicates()[k]) << serialize(sub);
      ASSERT_EQ(once.predicates()[k].attribute(), sub.predicates()[k].attribute());
      ASSERT_EQ(once.predicates()[k].op(), sub.predicates()[k].op());
    }
    // Durations round-trip through the option brackets (microsecond fuzz
    // from decimal printing is acceptable: compare at millisecond grain).
    EXPECT_NEAR(once.mei().count_seconds(), sub.mei().count_seconds(), 1e-3);
    EXPECT_NEAR(once.tt().count_seconds(), sub.tt().count_seconds(), 1e-3);
    EXPECT_NEAR(once.validity().count_seconds(), sub.validity().count_seconds(), 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace evps
