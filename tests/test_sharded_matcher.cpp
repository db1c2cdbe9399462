// Sharded matcher determinism suite (PR 5 tentpole).
//
// The load-bearing property: a ShardedMatcher must return *bit-identical*
// hit lists for every shard count K and every pool schedule — the broker's
// delivery order is derived from these lists, so any divergence between K=1
// and K>1 would silently change observable behaviour. The property test
// below drives 1000 random seeds of interleaved add/remove/match churn
// through K ∈ {1, 2, 4, 8} side by side for all three matcher kinds.
//
// Also covers the ThreadPool primitive itself (every index exactly once,
// exception propagation, nested dispatch, concurrent callers) and the
// batch-vs-loop equivalence of match_batch().
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "matching/sharded_matcher.hpp"

namespace evps {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool{3};
  std::vector<std::atomic<int>> counts(997);
  auto body = [&](std::size_t i) { counts[i].fetch_add(1, std::memory_order_relaxed); };
  pool.run_indexed(counts.size(), body);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool{2};
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  for (int job = 0; job < 200; ++job) {
    const std::size_t n = 1 + static_cast<std::size_t>(job % 7);
    auto body = [&](std::size_t i) { sum.fetch_add(i + 1, std::memory_order_relaxed); };
    pool.run_indexed(n, body);
    expected += n * (n + 1) / 2;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.concurrency(), 1u);
  std::vector<int> counts(64, 0);  // plain ints: everything runs on this thread
  auto body = [&](std::size_t i) { ++counts[i]; };
  pool.run_indexed(counts.size(), body);
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPool, PropagatesTaskExceptionAndStaysUsable) {
  ThreadPool pool{2};
  auto boom = [](std::size_t i) {
    if (i == 13) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.run_indexed(64, boom), std::runtime_error);
  // The failed job must not poison the next one.
  std::atomic<int> n{0};
  auto count = [&](std::size_t) { n.fetch_add(1, std::memory_order_relaxed); };
  pool.run_indexed(32, count);
  EXPECT_EQ(n.load(), 32);
}

TEST(ThreadPool, NestedRunExecutesInlineWithoutDeadlock) {
  // A task that dispatches again (e.g. an engine calling back into a sharded
  // matcher) must run the nested job inline rather than deadlocking on the
  // single-job serialisation.
  ThreadPool pool{2};
  std::atomic<int> inner{0};
  auto body = [&](std::size_t) {
    auto nested = [&](std::size_t) { inner.fetch_add(1, std::memory_order_relaxed); };
    pool.run_indexed(4, nested);
  };
  pool.run_indexed(8, body);
  EXPECT_EQ(inner.load(), 8 * 4);
}

TEST(ThreadPool, ConcurrentCallersAreSerialisedCorrectly) {
  ThreadPool pool{2};
  constexpr int kCallers = 4;
  constexpr int kJobsPerCaller = 50;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int job = 0; job < kJobsPerCaller; ++job) {
        auto body = [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); };
        pool.run_indexed(16, body);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(kCallers) * kJobsPerCaller * 16);
}

// ---------------------------------------------------------------------------
// Shard assignment
// ---------------------------------------------------------------------------

TEST(ShardedMatcher, ShardOfIsDeterministicAndInRange) {
  for (std::uint64_t id = 0; id < 4096; ++id) {
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      const auto s = ShardedMatcher::shard_of(SubscriptionId{id}, k);
      EXPECT_LT(s, k);
      EXPECT_EQ(s, ShardedMatcher::shard_of(SubscriptionId{id}, k));
    }
    EXPECT_EQ(ShardedMatcher::shard_of(SubscriptionId{id}, 1), 0u);
  }
}

TEST(ShardedMatcher, ConsecutiveIdsSpreadAcrossShards) {
  // The assignment hash must not leave shards starved for the common case of
  // densely allocated ids.
  constexpr std::size_t kShards = 8;
  std::vector<std::size_t> histogram(kShards, 0);
  constexpr std::uint64_t kIds = 10000;
  for (std::uint64_t id = 1; id <= kIds; ++id) {
    ++histogram[ShardedMatcher::shard_of(SubscriptionId{id}, kShards)];
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(histogram[s], kIds / kShards / 2) << "shard " << s << " starved";
    EXPECT_LT(histogram[s], kIds * 2 / kShards) << "shard " << s << " overloaded";
  }
}

TEST(ShardedMatcher, ShardSizesSumToSize) {
  ShardedMatcher m{MatcherKind::kCounting, 4};
  EXPECT_EQ(m.shard_count(), 4u);
  for (std::uint64_t id = 1; id <= 100; ++id) {
    m.add(SubscriptionId{id}, {Predicate{"x", RelOp::kLe, Value{static_cast<double>(id)}}});
  }
  std::size_t sum = 0;
  for (std::size_t s : m.shard_sizes()) sum += s;
  EXPECT_EQ(sum, m.size());
  EXPECT_EQ(m.size(), 100u);
  for (std::uint64_t id = 1; id <= 100; ++id) {
    EXPECT_TRUE(m.contains(SubscriptionId{id}));
  }
  EXPECT_FALSE(m.contains(SubscriptionId{101}));
  EXPECT_FALSE(m.remove(SubscriptionId{101}));
  for (std::uint64_t id = 1; id <= 100; id += 2) {
    EXPECT_TRUE(m.remove(SubscriptionId{id}));
  }
  EXPECT_EQ(m.size(), 50u);
}

// ---------------------------------------------------------------------------
// Random-workload equivalence across shard counts (1000 seeds)
// ---------------------------------------------------------------------------

const char* kAttributes[] = {"x", "y", "price", "volume", "symbol"};

Value random_value(Rng& rng, bool allow_string) {
  const auto kind = rng.uniform_int(0, allow_string ? 2 : 1);
  switch (kind) {
    case 0: return Value{rng.uniform_int(-20, 20)};
    case 1: return Value{rng.uniform(-20.0, 20.0)};
    default: return Value{std::string(1, static_cast<char>('a' + rng.uniform_int(0, 5)))};
  }
}

Predicate random_predicate(Rng& rng) {
  const auto* attr = kAttributes[rng.uniform_int(0, 4)];
  const auto op = static_cast<RelOp>(rng.uniform_int(0, 5));
  return Predicate{attr, op, random_value(rng, true)};
}

Publication random_publication(Rng& rng) {
  Publication pub;
  const auto n = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < n; ++i) {
    pub.set(kAttributes[rng.uniform_int(0, 4)], random_value(rng, true));
  }
  return pub;
}

class ShardEquivalence : public ::testing::TestWithParam<MatcherKind> {};

TEST_P(ShardEquivalence, HitsBitIdenticalAcrossShardCounts) {
  const MatcherKind kind = GetParam();
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng{seed};
    ShardedMatcher k1{kind, 1};
    ShardedMatcher k2{kind, 2};
    ShardedMatcher k4{kind, 4};
    ShardedMatcher k8{kind, 8};
    ShardedMatcher* matchers[] = {&k1, &k2, &k4, &k8};

    std::vector<SubscriptionId> live;
    std::uint64_t next_id = 1;
    std::vector<SubscriptionId> expected, got;

    for (int op = 0; op < 25; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.5 || live.empty()) {
        const SubscriptionId id{next_id++};
        std::vector<Predicate> preds;
        const auto n = rng.uniform_int(1, 3);
        for (std::int64_t i = 0; i < n; ++i) preds.push_back(random_predicate(rng));
        for (auto* m : matchers) m->add(id, preds);
        live.push_back(id);
      } else if (roll < 0.6) {
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const SubscriptionId id = live[idx];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        for (auto* m : matchers) ASSERT_TRUE(m->remove(id));
      } else {
        const Publication pub = random_publication(rng);
        expected.clear();
        k1.match(pub, expected);
        for (std::size_t mi = 1; mi < 4; ++mi) {
          got.clear();
          matchers[mi]->match(pub, got);
          ASSERT_EQ(got, expected) << "seed " << seed << " K=" << matchers[mi]->shard_count()
                                   << " pub " << pub.to_string();
        }
      }
      for (auto* m : matchers) ASSERT_EQ(m->size(), live.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMatcherKinds, ShardEquivalence,
                         ::testing::Values(MatcherKind::kBruteForce, MatcherKind::kCounting),
                         [](const auto& info) {
                           return info.param == MatcherKind::kBruteForce ? "BruteForce"
                                                                         : "Counting";
                         });

// ---------------------------------------------------------------------------
// Batch-vs-loop equivalence
// ---------------------------------------------------------------------------

TEST(ShardedMatcher, BatchEqualsLoopForAllShardCounts) {
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    Rng rng{k * 7919};
    ShardedMatcher m{MatcherKind::kCounting, k};
    for (std::uint64_t id = 1; id <= 80; ++id) {
      std::vector<Predicate> preds;
      const auto n = rng.uniform_int(1, 3);
      for (std::int64_t i = 0; i < n; ++i) preds.push_back(random_predicate(rng));
      m.add(SubscriptionId{id}, preds);
    }
    std::vector<Publication> pubs;
    for (int i = 0; i < 17; ++i) pubs.push_back(random_publication(rng));

    std::vector<std::vector<SubscriptionId>> batch;
    m.match_batch(pubs, batch);
    ASSERT_GE(batch.size(), pubs.size());
    std::vector<SubscriptionId> loop;
    for (std::size_t i = 0; i < pubs.size(); ++i) {
      loop.clear();
      m.match(pubs[i], loop);
      ASSERT_EQ(batch[i], loop) << "K=" << k << " pub " << i;
    }

    // Second batch reuses the scratch; results must not depend on leftovers.
    std::vector<Publication> pubs2;
    for (int i = 0; i < 5; ++i) pubs2.push_back(random_publication(rng));
    m.match_batch(pubs2, batch);
    for (std::size_t i = 0; i < pubs2.size(); ++i) {
      loop.clear();
      m.match(pubs2[i], loop);
      ASSERT_EQ(batch[i], loop) << "K=" << k << " reused-scratch pub " << i;
    }
  }
}

TEST(ShardedMatcher, DefaultMatchBatchFallbackEqualsLoop) {
  // The base-class match_batch (used by every non-sharded matcher) must be
  // the exact loop.
  Rng rng{4242};
  MatcherPtr m = make_matcher(MatcherKind::kCounting);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    m->add(SubscriptionId{id}, {random_predicate(rng)});
  }
  std::vector<Publication> pubs;
  for (int i = 0; i < 9; ++i) pubs.push_back(random_publication(rng));
  std::vector<std::vector<SubscriptionId>> batch;
  m->match_batch(pubs, batch);
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    ASSERT_EQ(batch[i], m->match(pubs[i])) << i;
  }
}

TEST(ShardedMatcher, ExplicitShardCountOverridesDefault) {
  // shards == 0 resolves to the environment default (>= 1); an explicit
  // count is taken verbatim.
  ShardedMatcher by_default{MatcherKind::kCounting, 0};
  EXPECT_GE(by_default.shard_count(), 1u);
  EXPECT_EQ(by_default.shard_count(), default_matcher_shards());
  ShardedMatcher explicit8{MatcherKind::kCounting, 8};
  EXPECT_EQ(explicit8.shard_count(), 8u);
}

}  // namespace
}  // namespace evps
