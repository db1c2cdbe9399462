#include "expr/variable_registry.hpp"

#include <gtest/gtest.h>

#include "expr/parser.hpp"
#include "expr/program.hpp"

namespace evps {
namespace {

SimTime sec(double s) { return SimTime::from_seconds(s); }

VarId id(std::string_view name) { return VariableTable::instance().intern(name); }

TEST(VariableRegistry, UnknownVariable) {
  const VariableRegistry reg;
  EXPECT_FALSE(reg.has("v"));
  EXPECT_FALSE(reg.get("v").has_value());
  EXPECT_FALSE(reg.get_at("v", sec(10)).has_value());
  EXPECT_EQ(reg.version("v"), 0u);
  EXPECT_FALSE(reg.last_change("v").has_value());
}

TEST(VariableRegistry, SetAndGet) {
  VariableRegistry reg;
  reg.set("v", 1.0, sec(0));
  EXPECT_TRUE(reg.has("v"));
  EXPECT_EQ(reg.get("v"), 1.0);
  EXPECT_EQ(reg.version("v"), 1u);
  EXPECT_EQ(reg.last_change("v"), sec(0));
}

TEST(VariableRegistry, HistoryLookup) {
  VariableRegistry reg;
  reg.set("v", 1.0, sec(0));
  reg.set("v", 0.8, sec(10));
  reg.set("v", 0.5, sec(20));
  EXPECT_FALSE(reg.get_at("v", sec(-1)).has_value());  // before first change
  EXPECT_EQ(reg.get_at("v", sec(0)), 1.0);
  EXPECT_EQ(reg.get_at("v", sec(9.999)), 1.0);
  EXPECT_EQ(reg.get_at("v", sec(10)), 0.8);
  EXPECT_EQ(reg.get_at("v", sec(15)), 0.8);
  EXPECT_EQ(reg.get_at("v", sec(100)), 0.5);
  EXPECT_EQ(reg.get("v"), 0.5);
  EXPECT_EQ(reg.version("v"), 3u);
}

TEST(VariableRegistry, SameInstantOverwrites) {
  VariableRegistry reg;
  reg.set("v", 1.0, sec(5));
  reg.set("v", 2.0, sec(5));
  EXPECT_EQ(reg.get("v"), 2.0);
  EXPECT_EQ(reg.get_at("v", sec(5)), 2.0);
  // An overwrite is a change: version-keyed caches must see it.
  EXPECT_EQ(reg.version("v"), 2u);
}

TEST(VariableRegistry, OutOfOrderSetThrows) {
  VariableRegistry reg;
  reg.set("v", 1.0, sec(10));
  EXPECT_THROW(reg.set("v", 2.0, sec(5)), std::invalid_argument);
}

TEST(VariableRegistry, GlobalVersionCountsAllChanges) {
  VariableRegistry reg;
  EXPECT_EQ(reg.global_version(), 0u);
  reg.set("a", 1.0, sec(0));
  reg.set("b", 1.0, sec(0));
  reg.set("a", 2.0, sec(1));
  EXPECT_EQ(reg.global_version(), 3u);
}

TEST(VariableRegistry, Names) {
  VariableRegistry reg;
  reg.set("b", 1.0, sec(0));
  reg.set("a", 1.0, sec(0));
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // sorted
  EXPECT_EQ(names[1], "b");
}

TEST(VariableRegistry, ListenerFiresOnSet) {
  VariableRegistry reg;
  std::vector<std::pair<std::string, double>> seen;
  const auto id = reg.add_listener([&](VarId var, double value, SimTime) {
    seen.emplace_back(VariableTable::instance().name(var), value);
  });
  reg.set("v", 0.7, sec(1));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, "v");
  EXPECT_EQ(seen[0].second, 0.7);
  reg.remove_listener(id);
  reg.set("v", 0.6, sec(2));
  EXPECT_EQ(seen.size(), 1u);  // removed listener no longer fires
}

TEST(EvalScope, ElapsedTimeVariable) {
  const EvalScope scope{nullptr, sec(12), sec(10)};
  EXPECT_TRUE(scope.has(id("t")));
  EXPECT_DOUBLE_EQ(scope.lookup(id("t")), 2.0);
}

TEST(EvalScope, RegistryLookupAtNow) {
  VariableRegistry reg;
  reg.set("v", 1.0, sec(0));
  reg.set("v", 0.5, sec(10));
  const EvalScope early{&reg, sec(5), sec(0)};
  const EvalScope late{&reg, sec(15), sec(0)};
  EXPECT_DOUBLE_EQ(early.lookup(id("v")), 1.0);
  EXPECT_DOUBLE_EQ(late.lookup(id("v")), 0.5);
}

TEST(EvalScope, OverridesShadowEverything) {
  VariableRegistry reg;
  reg.set("v", 1.0, sec(0));
  EvalScope scope{&reg, sec(5), sec(0)};
  scope.bind("v", 0.25).bind("t", 100.0);
  EXPECT_DOUBLE_EQ(scope.lookup(id("v")), 0.25);
  EXPECT_DOUBLE_EQ(scope.lookup(id("t")), 100.0);  // even `t` can be pinned (snapshots)
}

TEST(EvalScope, UnboundThrows) {
  const EvalScope scope{nullptr, sec(1), sec(0)};
  EXPECT_FALSE(scope.has(id("v")));
  EXPECT_THROW((void)scope.lookup(id("v")), UnboundVariableError);
}

TEST(EvalScope, WorksWithParsedExpressions) {
  VariableRegistry reg;
  reg.set("v", 0.5, sec(0));
  const EvalScope scope{&reg, sec(1), sec(0)};
  // Paper example: (3 + t) * v at t=1, v=0.5.
  EXPECT_DOUBLE_EQ(ExprProgram::compile(parse_expr("(3 + t) * v")).eval(scope), 2.0);
}

}  // namespace
}  // namespace evps
