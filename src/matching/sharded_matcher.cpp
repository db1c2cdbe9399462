#include "matching/sharded_matcher.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/thread_pool.hpp"

namespace evps {

std::size_t default_matcher_shards() {
  static const std::size_t cached = [] {
    // Read once before any worker thread exists; nothing in-process calls
    // setenv, so the lone getenv is benign.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("EVPS_MATCHER_THREADS");
    if (env == nullptr || *env == '\0') return std::size_t{1};
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || v < 1) return std::size_t{1};
    return std::min<std::size_t>(static_cast<std::size_t>(v), 64);
  }();
  return cached;
}

ShardedMatcher::ShardedMatcher(MatcherKind kind, std::size_t shards) {
  if (shards == 0) shards = default_matcher_shards();
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) shards_.push_back(make_matcher(kind));
  scratch_.resize(shards);
}

std::size_t ShardedMatcher::shard_of(SubscriptionId id, std::size_t shards) noexcept {
  if (shards <= 1) return 0;
  // fmix64 finaliser (MurmurHash3): full avalanche, so sequential ids — the
  // common allocation pattern — spread uniformly instead of striping.
  std::uint64_t x = id.value();
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<std::size_t>(x % shards);
}

void ShardedMatcher::add(SubscriptionId id, const std::vector<Predicate>& preds) {
  shards_[shard_of(id)]->add(id, preds);
}

bool ShardedMatcher::remove(SubscriptionId id) { return shards_[shard_of(id)]->remove(id); }

void ShardedMatcher::rebound(SubscriptionId id, const std::vector<Predicate>& version) {
  shards_[shard_of(id)]->rebound(id, version);
}

bool ShardedMatcher::contains(SubscriptionId id) const {
  return shards_[shard_of(id)]->contains(id);
}

std::size_t ShardedMatcher::size() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->size();
  return total;
}

std::vector<std::size_t> ShardedMatcher::shard_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& s : shards_) sizes.push_back(s->size());
  return sizes;
}

void ShardedMatcher::match(const Publication& pub, std::vector<SubscriptionId>& out) const {
  if (shards_.size() == 1) {
    shards_[0]->match(pub, out);
    return;
  }
  auto task = [&](std::size_t s) {
    auto& hits = scratch_[s].hits;
    if (hits.empty()) hits.resize(1);
    hits[0].clear();
    shards_[s]->match(pub, hits[0]);
  };
  ThreadPool::shared().run_indexed(shards_.size(), task);

  // Deterministic merge: concatenate the per-shard ascending runs and sort
  // the appended region. The result is the ascending-id union — identical to
  // a single unsharded matcher's output for any K and any schedule.
  const std::size_t base = out.size();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& hits = scratch_[s].hits[0];
    out.insert(out.end(), hits.begin(), hits.end());
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
}

void ShardedMatcher::match_batch(std::span<const Publication* const> pubs,
                                 std::vector<std::vector<SubscriptionId>>& out) const {
  if (out.size() < pubs.size()) out.resize(pubs.size());
  if (shards_.size() == 1) {
    shards_[0]->match_batch(pubs, out);
    return;
  }
  // One fork/join for the whole batch: task s matches every publication
  // against shard s into per-(shard, publication) scratch.
  auto task = [&](std::size_t s) {
    auto& hits = scratch_[s].hits;
    if (hits.size() < pubs.size()) hits.resize(pubs.size());
    const Matcher& shard = *shards_[s];
    for (std::size_t i = 0; i < pubs.size(); ++i) {
      hits[i].clear();
      shard.match(*pubs[i], hits[i]);
    }
  };
  ThreadPool::shared().run_indexed(shards_.size(), task);

  for (std::size_t i = 0; i < pubs.size(); ++i) {
    auto& merged = out[i];
    merged.clear();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto& hits = scratch_[s].hits[i];
      merged.insert(merged.end(), hits.begin(), hits.end());
    }
    std::sort(merged.begin(), merged.end());
  }
}

}  // namespace evps
