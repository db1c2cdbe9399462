// Concurrency stress suite — the payload of the sanitize-thread (TSan) gate
// in scripts/check.sh.
//
// Functional assertions here are deliberately simple (sharded results must
// equal a K=1 twin's); the real verdict comes from ThreadSanitizer observing
// the interleavings: many matcher instances hammering the one shared
// ThreadPool, fork-join dispatches back to back, engine lazy phases fanning
// out one task per shard, and engine evolution ticks interleaved with
// batched matching.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "evolving/clees_engine.hpp"
#include "evolving/hybrid_engine.hpp"
#include "evolving/lees_engine.hpp"
#include "evolving/ves_engine.hpp"
#include "matching/sharded_matcher.hpp"
#include "test_util.hpp"

namespace evps {
namespace {

using testutil::SimHost;
using testutil::make_sub;
using testutil::match;

const char* kAttributes[] = {"x", "y", "price", "volume"};

Predicate random_predicate(Rng& rng) {
  const auto* attr = kAttributes[rng.uniform_int(0, 3)];
  const auto op = static_cast<RelOp>(rng.uniform_int(0, 5));
  return Predicate{attr, op, Value{rng.uniform_int(-10, 10)}};
}

Publication random_publication(Rng& rng) {
  Publication pub;
  const auto n = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < n; ++i) {
    pub.set(kAttributes[rng.uniform_int(0, 3)], Value{rng.uniform_int(-10, 10)});
  }
  return pub;
}

// Each thread owns a sharded matcher and a K=1 twin; all sharded instances
// contend for the one process-wide pool. Any data race in the job handshake
// (descriptor publication, index claiming, completion counting, counter
// recycling between jobs) shows up here under TSan.
TEST(ConcurrencyStress, ManyMatchersOneSharedPool) {
  constexpr int kThreads = 4;
  constexpr int kOps = 300;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      Rng rng{static_cast<std::uint64_t>(t) * 1000003 + 17};
      ShardedMatcher sharded{MatcherKind::kCounting, 4};
      ShardedMatcher reference{MatcherKind::kCounting, 1};
      std::vector<SubscriptionId> live;
      std::uint64_t next_id = 1;
      std::vector<SubscriptionId> expected, got;
      for (int op = 0; op < kOps; ++op) {
        const double roll = rng.uniform();
        if (roll < 0.3 || live.empty()) {
          const SubscriptionId id{next_id++};
          std::vector<Predicate> preds{random_predicate(rng)};
          sharded.add(id, preds);
          reference.add(id, preds);
          live.push_back(id);
        } else if (roll < 0.4) {
          const auto idx = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          sharded.remove(live[idx]);
          reference.remove(live[idx]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        } else {
          const Publication pub = random_publication(rng);
          expected.clear();
          reference.match(pub, expected);
          got.clear();
          sharded.match(pub, got);
          if (got != expected) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Batched dispatch under contention: several threads repeatedly push whole
// publication batches through the pool at once while others do the same.
TEST(ConcurrencyStress, ConcurrentBatchDispatch) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 60;
  constexpr int kBatch = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      Rng rng{static_cast<std::uint64_t>(t) * 90001 + 3};
      ShardedMatcher m{MatcherKind::kCounting, 4};
      for (std::uint64_t id = 1; id <= 64; ++id) {
        m.add(SubscriptionId{id}, {random_predicate(rng)});
      }
      std::vector<Publication> pubs;
      std::vector<std::vector<SubscriptionId>> batch;
      std::vector<SubscriptionId> loop;
      for (int round = 0; round < kRounds; ++round) {
        pubs.clear();
        for (int i = 0; i < kBatch; ++i) pubs.push_back(random_publication(rng));
        m.match_batch(pubs, batch);
        for (int i = 0; i < kBatch; ++i) {
          loop.clear();
          m.match(pubs[static_cast<std::size_t>(i)], loop);
          if (batch[static_cast<std::size_t>(i)] != loop) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Regression for the per-shard LazyStorage split. The original LEES/CLEES
// layout kept ONE LazyStorage (epoch scratch: per-part done/m1 stamps and
// the per-destination settled marks) shared by the whole engine; the sharded
// lazy phase fans out one task per shard, so two pool threads would have
// stamped the same storage's scratch concurrently — a data race TSan flags
// on the old layout. The storage is now split per shard (same hash as the
// matcher shards) with mark_done broadcast before the fan-out, so each task
// touches only its own shard's state. K=1 twins prove the split changes no
// results.
TEST(ConcurrencyStress, LeesPerShardLazyStorage) {
  Simulator sim;
  SimHost host{sim};
  EngineConfig cfg4{.kind = EngineKind::kLees, .matcher_threads = 4};
  EngineConfig cfg1{.kind = EngineKind::kLees, .matcher_threads = 1};
  LeesEngine sharded{cfg4};
  LeesEngine reference{cfg1};
  ASSERT_EQ(sharded.shard_count(), 4u);

  // Fully evolving subscriptions spread over all shards, several per
  // destination (the destination-settled marks are the racy part), plus
  // split subs so the M1 phase and mark_done broadcast both run.
  for (std::uint64_t id = 1; id <= 32; ++id) {
    SubscriptionPtr sub;
    if (id % 4 == 0) {
      sub = make_sub(id, "y >= 0; x <= " + std::to_string(id % 8) + " + t");
    } else {
      sub = make_sub(id, "x >= " + std::to_string(id % 6) + " - t");
    }
    const NodeId dest{1 + id % 3};
    sharded.add(sub, dest, host);
    reference.add(sub, dest, host);
  }

  int mismatches = 0;
  for (int step = 0; step < 100; ++step) {
    sim.run_until(SimTime::from_seconds(0.05 * step));
    Publication pub;
    pub.set("x", Value{step % 11 - 5});
    if (step % 2 == 0) pub.set("y", Value{1});
    if (match(sharded, host, pub) != match(reference, host, pub)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
  // Both engines hold the same population even though one spreads it over
  // four storages.
  EXPECT_EQ(sharded.storage_size(), reference.storage_size());
}

TEST(ConcurrencyStress, CleesPerShardLazyStorage) {
  // Same shape for the cached engine: the TT cache lives inside the
  // per-shard storage, so parallel shard tasks refresh disjoint caches.
  Simulator sim;
  SimHost host{sim};
  EngineConfig cfg4{.kind = EngineKind::kClees, .matcher_threads = 4};
  EngineConfig cfg1{.kind = EngineKind::kClees, .matcher_threads = 1};
  CleesEngine sharded{cfg4};
  CleesEngine reference{cfg1};

  for (std::uint64_t id = 1; id <= 32; ++id) {
    auto sub = make_sub(id, "[tt=0.2] x <= " + std::to_string(id % 9) + " + t");
    const NodeId dest{1 + id % 3};
    sharded.add(sub, dest, host);
    reference.add(sub, dest, host);
  }

  int mismatches = 0;
  for (int step = 0; step < 100; ++step) {
    sim.run_until(SimTime::from_seconds(0.07 * step));
    Publication pub;
    pub.set("x", Value{step % 13 - 4});
    if (match(sharded, host, pub) != match(reference, host, pub)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ConcurrencyStress, HybridPerShardLazyStorage) {
  // The hybrid's store is sharded like CLEES's: parallel shard tasks bump
  // disjoint probe counters and refresh disjoint lazy versions, while the
  // re-classification tick refreshes versioned parts between matches.
  Simulator sim;
  SimHost host{sim};
  EngineConfig cfg4{.kind = EngineKind::kHybrid, .matcher_threads = 4};
  EngineConfig cfg1{.kind = EngineKind::kHybrid, .matcher_threads = 1};
  HybridEngine sharded{cfg4};
  HybridEngine reference{cfg1};

  for (std::uint64_t id = 1; id <= 32; ++id) {
    auto sub = make_sub(id, "[tt=0.2] x <= " + std::to_string(id % 9) + " + t");
    const NodeId dest{1 + id % 3};
    sharded.add(sub, dest, host);
    reference.add(sub, dest, host);
  }

  int mismatches = 0;
  for (int step = 0; step < 200; ++step) {
    sim.run_until(SimTime::from_seconds(0.07 * step));
    Publication pub;
    pub.set("x", Value{step % 13 - 4});
    if (match(sharded, host, pub) != match(reference, host, pub)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(sharded.storage_size(), reference.storage_size());
}

// Engine evolution interleaved with batched matching, several engines in
// flight at once. VES re-materialisation rewrites matcher shards from timer
// callbacks (same thread as the dispatching caller — the simulator thread),
// while other threads' engines are mid-dispatch on the shared pool.
TEST(ConcurrencyStress, EnginesEvolveWhileOthersMatch) {
  constexpr int kThreads = 3;
  constexpr int kSteps = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      Simulator sim;
      SimHost host{sim};
      EngineConfig cfg4{.kind = EngineKind::kVes, .matcher_threads = 4};
      EngineConfig cfg1{.kind = EngineKind::kVes, .matcher_threads = 1};
      VesEngine sharded{cfg4};
      VesEngine reference{cfg1};
      for (std::uint64_t id = 1; id <= 24; ++id) {
        auto sub = make_sub(id, "x <= " + std::to_string(id % 7) + " + 0.5 * t");
        sharded.add(sub, NodeId{1 + id % 4}, host);
        reference.add(sub, NodeId{1 + id % 4}, host);
      }
      Rng rng{static_cast<std::uint64_t>(t) * 7 + 5};
      std::vector<Publication> pubs;
      std::vector<std::vector<NodeId>> batch4, batch1;
      for (int step = 1; step <= kSteps; ++step) {
        // Advance time: VES evolution timers fire and re-materialise
        // versions inside the sharded matcher.
        sim.run_until(SimTime::from_seconds(0.25 * step));
        pubs.clear();
        for (int i = 0; i < 4; ++i) {
          Publication pub = random_publication(rng);
          pub.set_entry_time(sim.now());
          pubs.push_back(std::move(pub));
        }
        sharded.match_batch(pubs, nullptr, host, batch4);
        reference.match_batch(pubs, nullptr, host, batch1);
        for (std::size_t i = 0; i < pubs.size(); ++i) {
          if (batch4[i] != batch1[i]) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Lazy engines under the same cross-thread pressure: per-shard EvalScope and
// evaluation stacks are written by pool workers while neighbouring threads
// run their own fan-outs through the same pool.
TEST(ConcurrencyStress, ParallelLazyEnginesContendForPool) {
  constexpr int kThreads = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      Simulator sim;
      SimHost host{sim};
      EngineConfig cfg4{.kind = EngineKind::kLees, .matcher_threads = 4};
      EngineConfig cfg1{.kind = EngineKind::kLees, .matcher_threads = 1};
      LeesEngine sharded{cfg4};
      LeesEngine reference{cfg1};
      for (std::uint64_t id = 1; id <= 20; ++id) {
        auto sub = make_sub(id, "x >= " + std::to_string(id % 5) + " + 0.1 * t");
        sharded.add(sub, NodeId{1 + id % 2}, host);
        reference.add(sub, NodeId{1 + id % 2}, host);
      }
      for (int step = 0; step < 120; ++step) {
        sim.run_until(SimTime::from_seconds(0.02 * step + 0.01 * t));
        Publication pub;
        pub.set("x", Value{step % 9});
        if (match(sharded, host, pub) != match(reference, host, pub)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace evps
