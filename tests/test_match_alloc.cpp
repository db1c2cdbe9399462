// Steady-state matching must not touch the heap (tentpole acceptance
// criterion of the compiled-predicate work): after a warm-up publication has
// grown every scratch buffer to capacity, BrokerEngine::match performs zero
// allocations for LEES, CLEES, VES, hybrid and static engines alike — for
// LEES also while the clock advances inside its filter windows. Steady-state
// version replacement (Matcher::rebound, VES's per-evolution maintenance)
// allocates nothing either.
//
// The whole-program operator new/delete are replaced with counting versions
// in this binary. All variants are forwarded to malloc/free consistently so
// the test also runs cleanly under ASan (no alloc/dealloc mismatch).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "evolving/clees_engine.hpp"
#include "evolving/hybrid_engine.hpp"
#include "evolving/lees_engine.hpp"
#include "evolving/static_engine.hpp"
#include "evolving/ves_engine.hpp"
#include "matching/sharded_matcher.hpp"
#include "test_util.hpp"

namespace {
// Atomic (relaxed): sharded dispatches run task bodies on pool workers, and
// an allocation there must count the same as one on the caller.
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t alloc_count() { return g_alloc_count.load(std::memory_order_relaxed); }
void count_alloc() { g_alloc_count.fetch_add(1, std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  count_alloc();
  const auto align = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) { return ::operator new(size, al); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace evps {
namespace {

using testutil::SimHost;
using testutil::make_sub;

/// Install a mixed population: split evolving subs (static + evolving
/// predicate), fully evolving subs, and purely static subs, spread over a
/// handful of destinations.
void populate(BrokerEngine& engine, SimHost& host, int n, bool evolving_allowed) {
  for (int i = 1; i <= n; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    SubscriptionPtr sub;
    if (!evolving_allowed || i % 3 == 0) {
      sub = make_sub(id, "x <= " + std::to_string(40 + i % 20));
    } else if (i % 3 == 1) {
      sub = make_sub(id, "y >= 1; x <= 10 + 2 * v + 0.01 * t");
    } else {
      sub = make_sub(id, "x <= 5 * v + 0.1 * t");
    }
    engine.add(sub, NodeId{1 + id % 7}, host);
  }
}

/// Matches `pubs` through `engine` once (growing scratch), then asserts the
/// next `rounds` full passes allocate nothing.
void expect_alloc_free_matching(BrokerEngine& engine, SimHost& host,
                                const std::vector<Publication>& pubs,
                                const VariableSnapshot* snapshot = nullptr) {
  std::vector<NodeId> dests;
  dests.reserve(64);
  for (int warm = 0; warm < 2; ++warm) {
    for (const auto& pub : pubs) {
      dests.clear();
      engine.match(pub, snapshot, host, dests);
    }
  }
  const std::uint64_t before = alloc_count();
  std::size_t total_dests = 0;
  for (int round = 0; round < 50; ++round) {
    for (const auto& pub : pubs) {
      dests.clear();
      engine.match(pub, snapshot, host, dests);
      total_dests += dests.size();
    }
  }
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u) << "steady-state match allocated";
  EXPECT_GT(total_dests, 0u) << "workload never matched anything";
}

std::vector<Publication> make_pubs() {
  std::vector<Publication> pubs;
  pubs.push_back(Publication{{"x", Value{3.0}}, {"y", Value{2.0}}});
  pubs.push_back(Publication{{"x", Value{45.0}}, {"y", Value{0.0}}});
  pubs.push_back(Publication{{"x", Value{-2.0}}, {"y", Value{5.0}}});
  pubs.push_back(Publication{{"z", Value{1.0}}});
  for (auto& pub : pubs) pub.set_entry_time(SimTime::from_seconds(1));
  return pubs;
}

class MatchAllocation : public ::testing::Test {
 protected:
  Simulator sim;
  SimHost host{sim};

  void SetUp() override {
    host.set_variable("v", 0.5);
    sim.run_until(SimTime::from_seconds(1));
  }
};

TEST_F(MatchAllocation, LeesSteadyStateIsAllocFree) {
  LeesEngine engine{EngineConfig{.kind = EngineKind::kLees}};
  populate(engine, host, 120, true);
  expect_alloc_free_matching(engine, host, make_pubs());
}

TEST_F(MatchAllocation, LeesSnapshotPathIsAllocFree) {
  LeesEngine engine{EngineConfig{.kind = EngineKind::kLees}};
  populate(engine, host, 120, true);
  const VariableSnapshot snapshot = make_variable_snapshot({{"v", 1.0}});
  expect_alloc_free_matching(engine, host, make_pubs(), &snapshot);
}

TEST_F(MatchAllocation, CleesSteadyStateIsAllocFree) {
  CleesEngine engine{EngineConfig{.kind = EngineKind::kClees}};
  populate(engine, host, 120, true);
  // Cache hits (same instant) and misses (first touch) both occur here; the
  // re-materialisation path overwrites cached bounds in place.
  expect_alloc_free_matching(engine, host, make_pubs());
}

TEST_F(MatchAllocation, CleesCacheExpiryRefreshIsAllocFree) {
  CleesEngine engine{EngineConfig{.kind = EngineKind::kClees}};
  for (int i = 1; i <= 60; ++i) {
    // Sub-millisecond TT: every pass below begins past the cache window.
    engine.add(make_sub(static_cast<std::uint64_t>(i),
                        "[tt=0.000001] x <= 5 * v + 0.1 * t"),
               NodeId{1 + static_cast<std::uint64_t>(i) % 7}, host);
  }
  const auto pubs = make_pubs();
  std::vector<NodeId> dests;
  dests.reserve(64);
  for (const auto& pub : pubs) {
    dests.clear();
    engine.match(pub, nullptr, host, dests);
  }
  // Every later pass begins past the TT, forcing re-materialisation.
  const std::uint64_t before = alloc_count();
  for (int round = 0; round < 20; ++round) {
    sim.run_until(sim.now() + Duration::millis(1));
    for (const auto& pub : pubs) {
      dests.clear();
      engine.match(pub, nullptr, host, dests);
    }
  }
  EXPECT_EQ(alloc_count() - before, 0u);
  EXPECT_GT(engine.costs().cache_misses, 60u);
}

TEST_F(MatchAllocation, LeesFilterTimeAdvanceWithinWindowIsAllocFree) {
  // The clock moves between passes but stays inside every part's validity
  // window, so each match runs an empty envelope wave, the filter match and
  // the refine probes — all allocation-free.
  LeesEngine engine{EngineConfig{.kind = EngineKind::kLees}};
  for (int i = 1; i <= 90; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    const std::string body =
        i % 2 == 0 ? "y >= 1; x <= 10 + 2 * v + 0.01 * t" : "x <= 5 * v + 0.1 * t";
    engine.add(make_sub(id, "[validity=100] " + body), NodeId{1 + id % 7}, host);
  }
  const auto pubs = make_pubs();
  std::vector<NodeId> dests;
  dests.reserve(64);
  for (const auto& pub : pubs) {
    dests.clear();
    engine.match(pub, nullptr, host, dests);
  }
  const std::uint64_t envelopes = engine.costs().envelopes;
  const std::uint64_t before = alloc_count();
  std::size_t total_dests = 0;
  for (int round = 0; round < 20; ++round) {
    sim.run_until(sim.now() + Duration::millis(250));
    for (const auto& pub : pubs) {
      dests.clear();
      engine.match(pub, nullptr, host, dests);
      total_dests += dests.size();
    }
  }
  EXPECT_EQ(alloc_count() - before, 0u);
  EXPECT_GT(total_dests, 0u);
  EXPECT_EQ(engine.costs().envelopes, envelopes);  // no window ended
}

TEST_F(MatchAllocation, VesSteadyStateIsAllocFree) {
  VesEngine engine{EngineConfig{.kind = EngineKind::kVes}};
  populate(engine, host, 120, true);
  expect_alloc_free_matching(engine, host, make_pubs());
}

TEST_F(MatchAllocation, HybridSteadyStateIsAllocFree) {
  HybridEngine engine{EngineConfig{.kind = EngineKind::kHybrid}};
  populate(engine, host, 120, true);
  expect_alloc_free_matching(engine, host, make_pubs());
}

TEST_F(MatchAllocation, StaticSteadyStateIsAllocFree) {
  StaticEngine engine{EngineConfig{.kind = EngineKind::kStatic}};
  populate(engine, host, 120, false);
  expect_alloc_free_matching(engine, host, make_pubs());
}

TEST_F(MatchAllocation, ShardedReboundOfMovingBandIsAllocFree) {
  // An HFT band `symbol = s; price in c ± 0.25` whose two bounds move each
  // version: rebound keeps the slot and re-indexes both bounds under it, so
  // once every page has seen both versions nothing allocates.
  ShardedMatcher matcher{MatcherKind::kCounting, 4};
  const auto band = [](double c) {
    return std::vector<Predicate>{Predicate{"symbol", RelOp::kEq, Value{"IBM"}},
                                  Predicate{"price", RelOp::kGe, Value{c - 0.25}},
                                  Predicate{"price", RelOp::kLe, Value{c + 0.25}}};
  };
  constexpr std::uint64_t kSubs = 2000;
  std::vector<std::vector<Predicate>> versions[2];
  for (std::uint64_t id = 1; id <= kSubs; ++id) {
    const auto c = static_cast<double>(id % 500);
    matcher.add(SubscriptionId{id}, band(c));
    versions[0].push_back(band(c + 0.01));
    versions[1].push_back(band(c + 0.02));
  }
  const auto wave = [&](int turn) {
    for (std::uint64_t id = 1; id <= kSubs; ++id) {
      matcher.rebound(SubscriptionId{id}, versions[turn & 1][id - 1]);
    }
  };
  for (int warm = 0; warm < 4; ++warm) wave(warm);
  const std::uint64_t before = alloc_count();
  for (int round = 0; round < 20; ++round) wave(round);
  EXPECT_EQ(alloc_count() - before, 0u) << "steady-state rebound allocated";

  // The last wave left version 1 (c + 0.02): price 7.2 is in 7 + 0.02 ± 0.25.
  std::vector<SubscriptionId> hits;
  matcher.match(Publication{{"symbol", Value{"IBM"}}, {"price", Value{7.2}}}, hits);
  EXPECT_EQ(hits, (std::vector<SubscriptionId>{SubscriptionId{7}, SubscriptionId{507},
                                               SubscriptionId{1007}, SubscriptionId{1507}}));
}

/// Batch variant: after warm-up passes have sized every per-shard scratch
/// (and instantiated the shared worker pool — its one-time thread spawn is
/// deliberately outside the measured window), steady-state match_batch()
/// must not allocate on any thread, caller or pool worker.
void expect_alloc_free_batching(BrokerEngine& engine, SimHost& host,
                                const std::vector<Publication>& pubs) {
  std::vector<std::vector<NodeId>> dests;
  for (int warm = 0; warm < 3; ++warm) {
    engine.match_batch(pubs, nullptr, host, dests);
  }
  const std::uint64_t before = alloc_count();
  std::size_t total_dests = 0;
  for (int round = 0; round < 50; ++round) {
    engine.match_batch(pubs, nullptr, host, dests);
    for (std::size_t i = 0; i < pubs.size(); ++i) total_dests += dests[i].size();
  }
  EXPECT_EQ(alloc_count() - before, 0u) << "steady-state match_batch allocated";
  EXPECT_GT(total_dests, 0u) << "workload never matched anything";
}

TEST_F(MatchAllocation, LeesShardedBatchSteadyStateIsAllocFree) {
  LeesEngine engine{EngineConfig{.kind = EngineKind::kLees, .matcher_threads = 2}};
  populate(engine, host, 120, true);
  expect_alloc_free_batching(engine, host, make_pubs());
}

TEST_F(MatchAllocation, CleesShardedBatchSteadyStateIsAllocFree) {
  CleesEngine engine{EngineConfig{.kind = EngineKind::kClees, .matcher_threads = 2}};
  populate(engine, host, 120, true);
  expect_alloc_free_batching(engine, host, make_pubs());
}

TEST_F(MatchAllocation, HybridShardedBatchSteadyStateIsAllocFree) {
  HybridEngine engine{EngineConfig{.kind = EngineKind::kHybrid, .matcher_threads = 2}};
  populate(engine, host, 120, true);
  expect_alloc_free_batching(engine, host, make_pubs());
}

TEST_F(MatchAllocation, VesShardedBatchSteadyStateIsAllocFree) {
  VesEngine engine{EngineConfig{.kind = EngineKind::kVes, .matcher_threads = 2}};
  populate(engine, host, 120, true);
  expect_alloc_free_batching(engine, host, make_pubs());
}

}  // namespace
}  // namespace evps
