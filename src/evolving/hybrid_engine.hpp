// Hybrid evolving engine — the adaptive VES/CLEES combination the paper
// leaves as future work (Section IV-C: "A truly hybrid solution which can
// adaptively switch between the two represents an interesting avenue").
//
// Rationale: VES cost is proportional to the evolution (refresh) rate and
// independent of publications; CLEES cost is proportional to the rate of
// publications that probe a subscription. The cheaper strategy therefore
// depends on the per-subscription probe rate:
//
//   probes/sec > refreshes/sec (1/MEI)  ->  keep a timer-refreshed version
//   probes/sec < refreshes/sec          ->  evaluate lazily, cache for TT
//
// Each evolving part starts lazy and is re-classified at the end of every
// observation window from its measured probe count. Versioned parts are
// re-materialised on the engine's periodic tick (every MEI), like VES but in
// the engine-local store rather than the shared matcher (avoiding VES's
// population-bound maintenance); lazy parts behave exactly like CLEES.
//
// The store is the LazyEngine skeleton's (lazy_engine.hpp), so the hybrid is
// sharded like LEES and CLEES. At K=1 its probe order is the sequential one;
// at K>1 the per-shard early exit can probe parts K=1 would skip, so probe
// counts — and with them the lazy/versioned classification — may differ,
// while every version stays within TT (lazy) or MEI (versioned).
//
// Cost accounting: version refreshes -> maintenance + evolutions; lazy
// materialisations -> lazy_eval + cache_misses; version/cache probe tests ->
// cache_hits.
//
// Versions are stored as CachedBound vectors over the install-time compiled
// predicates (see lazy_storage.hpp), so both probing and refreshing are
// allocation-free in steady state.
#pragma once

#include <cstdint>
#include <vector>

#include "evolving/lazy_engine.hpp"

namespace evps {

/// A hybrid part's mode, materialised version and probe count.
struct HybridPartState {
  enum class Mode { kLazy, kVersioned };
  Mode mode = Mode::kLazy;
  std::vector<CachedBound> bounds;  // materialised version (both modes)
  SimTime version_expires = SimTime::zero();  // lazy mode only
  std::uint64_t probes_this_window = 0;
};

class HybridEngine final : public LazyEngine<HybridEngine, HybridPartState> {
 public:
  explicit HybridEngine(const EngineConfig& config) : LazyEngine(config) {}

  /// Probes count towards re-classification and refresh lazy versions, so
  /// every part is scanned (no candidate filter).
  static constexpr bool kPureProbe = false;

  /// Number of evolving parts currently in versioned (VES-like) mode.
  [[nodiscard]] std::size_t versioned_count() const noexcept;
  [[nodiscard]] std::size_t lazy_count() const noexcept {
    return storage_size() - versioned_count();
  }

 private:
  friend class LazyEngine<HybridEngine, HybridPartState>;
  using Mode = HybridPartState::Mode;

  /// Starts the re-classification tick with the first evolving install.
  void on_install(Part& part, const Installed& entry, EngineHost& host);
  /// Count the probe, then match the version, a fresh lazy one, or (under a
  /// snapshot) an uncached evaluation at the entry instant.
  inline bool probe(Part& part, const Publication& pub, const ProbeContext& ctx,
                    ShardScratch& sc);

  void on_tick(EngineHost& host);
  void refresh(Part& part, EngineHost& host);

  [[nodiscard]] Duration tick_period() const noexcept { return config_.default_mei; }

  bool timer_running_ = false;
  EngineHost* timer_host_ = nullptr;
};

extern template class LazyEngine<HybridEngine, HybridPartState>;

}  // namespace evps
