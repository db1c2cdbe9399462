// Lazy Evaluation Evolving Subscriptions (LEES) — Sections IV-B and V-B.
//
// The Lazy Evolution Matching Engine (LEME) evaluates every probed evolving
// part exactly, at publication time: the LazyEngine skeleton's probe rule
// with no cache at all (lazy_engine.hpp has the split, the per-destination
// early exit and the sharding).
//
// Evolving predicates are compiled at install time (attribute ids + flat
// expression programs), so the per-publication loop touches no strings and
// allocates nothing (see lazy_storage.hpp for the scratch discipline).
//
// LEES evaluation is a pure function of the publication. So LEES runs behind
// the skeleton's candidate filter — only the parts whose window envelope
// admits the publication, plus the few parts no envelope bounds, are probed
// (DESIGN.md §8) — and neither the filter nor K>1 changes a delivery, only
// the probe counters.
#pragma once

#include "evolving/lazy_engine.hpp"

namespace evps {

/// A LEES part carries only its candidate-filter bookkeeping.
using LeesPartState = EnvelopeState;

class LeesEngine final : public LazyEngine<LeesEngine, LeesPartState> {
 public:
  explicit LeesEngine(const EngineConfig& config) : LazyEngine(config) {}

  /// The probe reads no cache: filtering cannot change a verdict.
  static constexpr bool kPureProbe = true;

  [[nodiscard]] std::size_t deduped_installs() const noexcept override {
    return BrokerEngine::deduped_installs() + lazy_dedup_.suppressed();
  }

  void export_audit_state(audit::EngineState& out) const override;

 protected:
  void do_add(const Installed& entry, EngineHost& host) override;
  void do_remove(const Installed& entry, EngineHost& host) override;

 private:
  friend class LazyEngine<LeesEngine, LeesPartState>;

  /// True iff all compiled evolving predicates are satisfied by `pub` now.
  inline bool probe(const Part& part, const Publication& pub, const ProbeContext& ctx,
                    ShardScratch& sc) const;

  /// Install-sharing over FULLY-evolving subscriptions: identical compiled
  /// predicates towards the same destination with the same epoch evaluate
  /// identically on every publication, so one LEME part stands in for the
  /// whole group. Split subscriptions never dedup (note_m1 is keyed by id).
  /// LEES-only: the CLEES/hybrid stores carry per-part cache state.
  DedupTable lazy_dedup_;
};

extern template class LazyEngine<LeesEngine, LeesPartState>;

}  // namespace evps
