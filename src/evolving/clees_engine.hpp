// Cached Lazy Evaluation Evolving Subscriptions (CLEES) — Sections IV-C, V-C.
//
// LEES plus a version cached for the time threshold (TT): the LazyEngine
// skeleton's probe rule materialises a probed evolving part into a concrete
// version on the first publication that reaches it, and later publications
// match against that cached version with plain predicate tests (cache hit)
// until it expires; the next probe after expiry re-materialises it (cache
// miss).
//
// The cache is kept separate from the standard matcher: inserting versions
// into the matcher would leverage its index but raise contention on the
// shared structure (Section V-C) — and would re-introduce VES's maintenance
// scaling, which CLEES exists to avoid.
//
// A cached version is just the vector of bound values the compiled
// predicates evaluated to (CachedBound), parallel to the compiled parts —
// re-materialisation overwrites it in place, so steady state allocates
// nothing.
//
// Sharding: the TT cache lives inside the part, so a shard worker only ever
// refreshes cache entries no other worker can reach. For K=1 probe order and
// cache trajectory are exactly the sequential ones; for K>1 a part may be
// probed (and its cache refreshed) where K=1 would have skipped it, so a
// later publication can meet a fresher or an older version than at K=1 and
// its deliveries can differ — every cached version is still at most TT old,
// so the paper's staleness contract holds for every K.
#pragma once

#include <cstdint>
#include <vector>

#include "evolving/lazy_engine.hpp"

namespace evps {

/// A CLEES part's TT cache and its install-time analysis windows.
struct CleesPartState {
  std::vector<CachedBound> bounds;  // parallel to Part::preds
  SimTime expires = SimTime::zero();
  /// A version has been materialised into `bounds` (expires alone cannot
  /// tell: the analysis windows below outlive it).
  bool populated = false;
  /// Every bound folds (fold_bound, analysis/analyzer.hpp): one value for
  /// every reachable variable state, so the first materialised version never
  /// expires.
  bool constant_bounds = false;
  /// No bound reads `t` (reads_time): a version stays exact until some
  /// registry variable changes, however far past TT that is.
  bool time_invariant = false;
  /// VariableRegistry::global_version() when `bounds` was materialised.
  std::uint64_t seen_version = 0;
};

class CleesEngine final : public LazyEngine<CleesEngine, CleesPartState> {
 public:
  explicit CleesEngine(const EngineConfig& config) : LazyEngine(config) {}

  /// A probe may refresh the cached version later probes read, so every
  /// part is scanned (no candidate filter).
  static constexpr bool kPureProbe = false;

 private:
  friend class LazyEngine<CleesEngine, CleesPartState>;

  /// Derive the cache-window class once, at install time.
  void on_install(Part& part, const Installed& entry, EngineHost& host);
  /// Match against the cached version, re-materialising it on a miss.
  inline bool probe(Part& part, const Publication& pub, const ProbeContext& ctx,
                    ShardScratch& sc);
};

extern template class LazyEngine<CleesEngine, CleesPartState>;

}  // namespace evps
