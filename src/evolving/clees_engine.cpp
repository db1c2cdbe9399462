#include "evolving/clees_engine.hpp"

#include <algorithm>

#include "analysis/analyzer.hpp"

namespace evps {

void CleesEngine::on_install(Part& part, const Installed& entry, EngineHost& host) {
  // Bounds that fold (the kConstant rule) never need re-materialisation,
  // t-independent bounds only when a registry variable changed.
  const RegistryVarBounds ranges(host.variables());
  part.extra.constant_bounds = std::ranges::all_of(part.preds, [&](const CompiledPredicate& cp) {
    return fold_bound(cp.program(), eval_interval(cp.program(), ranges), host.variables(),
                      entry.sub->epoch())
        .has_value();
  });
  part.extra.time_invariant = !reads_time(part.preds);
}

inline bool CleesEngine::probe(Part& part, const Publication& pub,
                               const ProbeContext& ctx, ShardScratch& sc) {
  // Snapshot-consistency mode bypasses the cache: cached versions are
  // anchored at broker-local time, which a piggybacked snapshot invalidates.
  auto& cache = part.extra;
  bool valid = ctx.snapshot == nullptr && ctx.now < cache.expires;
  if (!valid && ctx.snapshot == nullptr && cache.populated) {
    // Analysis-sized windows: past TT, a version is still *exact* (not
    // merely tolerated staleness) when re-materialisation would provably
    // reproduce it bit-for-bit.
    valid = cache.constant_bounds ||
            (cache.time_invariant && ctx.global_version == cache.seen_version);
  }
  if (valid) {
    ++sc.cache_hits;
    return cached_bounds_match(part.preds, cache.bounds, pub);
  }
  ++sc.cache_misses;
  ++sc.lazy_evaluations;
  sc.scope.set_epoch(part.sub->epoch());
  auto& bounds = ctx.snapshot == nullptr ? cache.bounds : sc.snapshot_bounds;
  materialize_bounds(part.preds, sc.scope, sc.stack, bounds);
  if (ctx.snapshot == nullptr) {
    cache.expires = ctx.now + effective_tt(*part.sub);
    cache.populated = true;
    cache.seen_version = ctx.global_version;
  }
  return cached_bounds_match(part.preds, bounds, pub);
}

template class LazyEngine<CleesEngine, CleesPartState>;

}  // namespace evps
