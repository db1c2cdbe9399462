#include "evolving/hybrid_engine.hpp"

#include <algorithm>

namespace evps {

std::size_t HybridEngine::versioned_count() const noexcept {
  std::size_t n = 0;
  for_each_part([&n](NodeId /*dest*/, const Part& part) {
    if (part.extra.mode == Mode::kVersioned) ++n;
  });
  return n;
}

void HybridEngine::on_install(Part& /*part*/, const Installed& /*entry*/, EngineHost& host) {
  timer_host_ = &host;
  if (timer_running_) return;
  timer_running_ = true;
  host.schedule(tick_period(), [this]() { on_tick(*timer_host_); });
}

void HybridEngine::on_tick(EngineHost& host) {
  // 1. Refresh versioned parts (the VES-like maintenance work).
  // 2. Re-classify every part from its probe count this window: versioned
  //    iff it was probed more often than it would be refreshed.
  const double window_s = tick_period().count_seconds();
  const double refreshes_per_window =
      window_s / std::max(1e-9, config_.default_mei.count_seconds());
  for_each_part([&](NodeId /*dest*/, Part& part) {
    if (part.extra.mode == Mode::kVersioned) refresh(part, host);
    const auto probes = part.extra.probes_this_window;
    part.extra.probes_this_window = 0;
    const Mode wanted =
        static_cast<double>(probes) > refreshes_per_window ? Mode::kVersioned : Mode::kLazy;
    if (wanted == part.extra.mode) return;
    part.extra.mode = wanted;
    if (wanted == Mode::kVersioned) {
      refresh(part, host);  // enter versioned mode with a fresh version
    } else {
      part.extra.version_expires = SimTime::zero();  // lazy mode re-evaluates
    }
  });
  if (storage_size() == 0) {
    timer_running_ = false;  // go quiescent until the next evolving add
    return;
  }
  host.schedule(tick_period(), [this]() { on_tick(*timer_host_); });
}

void HybridEngine::refresh(Part& part, EngineHost& host) {
  const ScopedTimer timer(costs_.maintenance);
  scope_.rebind(&host.variables(), host.now());
  scope_.set_epoch(part.sub->epoch());
  materialize_bounds(part.preds, scope_, eval_stack_, part.extra.bounds);
  ++costs_.evolutions;
}

inline bool HybridEngine::probe(Part& part, const Publication& pub,
                                const ProbeContext& ctx, ShardScratch& sc) {
  auto& state = part.extra;
  ++state.probes_this_window;
  if (ctx.snapshot != nullptr) {
    // Snapshot mode: evaluate at the entry instant, bypassing versions.
    ++sc.lazy_evaluations;
    sc.scope.set_epoch(part.sub->epoch());
    materialize_bounds(part.preds, sc.scope, sc.stack, sc.snapshot_bounds);
    return cached_bounds_match(part.preds, sc.snapshot_bounds, pub);
  }
  if (!state.bounds.empty() &&
      (state.mode == Mode::kVersioned || ctx.now < state.version_expires)) {
    ++sc.cache_hits;
    return cached_bounds_match(part.preds, state.bounds, pub);
  }
  ++sc.cache_misses;
  ++sc.lazy_evaluations;
  sc.scope.set_epoch(part.sub->epoch());
  materialize_bounds(part.preds, sc.scope, sc.stack, state.bounds);
  state.version_expires = ctx.now + effective_tt(*part.sub);
  return cached_bounds_match(part.preds, state.bounds, pub);
}

template class LazyEngine<HybridEngine, HybridPartState>;

}  // namespace evps
