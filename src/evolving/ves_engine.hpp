// Versioned Evolving Subscriptions (VES) — Sections IV-A and V-A.
//
// Each evolving subscription is materialised into a non-evolving *version*
// kept in the standard matcher. Versions are refreshed autonomously:
//
//   * The ESQ orders subscriptions by their next scheduled evolution time
//     (install time + MEI).
//   * When a subscription becomes due, it evolves immediately if a variable
//     it depends on has changed since its current version was built — the
//     continuous variable `t` counts as always-changing. Otherwise it parks
//     in the ready list until one of its variables changes (the paper's
//     "list of subscriptions that are ready to evolve").
//   * Evolving = replace the old version in the matcher with the freshly
//     evaluated one (Matcher::rebound, the paper's remove + insert under
//     one matcher slot), reschedule at now + MEI. The cost of these matcher
//     operations is the VES maintenance overhead measured in Figures 8/9.
//
// Matching publications uses only the standard matcher (fast — the base
// class's matcher-only path), which is why VES "has the advantage of not
// being affected by publications".
//
// Each evolving state keeps the subscription's compiled part
// (compile_evolving, the lazy engines' starting point too) and the LEES
// filter's discrete-version stamp taken at the last materialisation. A
// version is due for replacement when it reads `t` or its stamp moved; the
// registry reports every change synchronously, so on a change the parked
// subscriptions whose stamp moved are exactly those reading that variable.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "evolving/engine.hpp"
#include "evolving/esq.hpp"

namespace evps {

class VesEngine final : public BrokerEngine {
 public:
  explicit VesEngine(const EngineConfig& config) : BrokerEngine(config) {}
  ~VesEngine() override;

  /// Subscriptions currently parked awaiting a variable change.
  [[nodiscard]] std::size_t ready_count() const noexcept { return ready_.size(); }
  /// Live entries in the evolving subscription queue.
  [[nodiscard]] std::size_t queued_count() const noexcept { return esq_.size(); }

 protected:
  void do_add(const Installed& entry, EngineHost& host) override;
  void do_remove(const Installed& entry, EngineHost& host) override;

 private:
  struct EvolvingState {
    SubscriptionPtr sub;
    /// The compiled part: the evolving predicates of sub, in order.
    std::vector<CompiledPredicate> preds;
    /// discrete_versions(preds) when the current version was materialised.
    std::uint64_t versions = 0;
    /// Widen versions over the MEI window (forwarding-hop subscriptions
    /// under the overestimation extension, Section IV-A).
    bool overestimate = false;
  };

  void ensure_listener(EngineHost& host);
  void arm_timer(EngineHost& host);
  void on_timer(EngineHost& host);
  void on_variable_changed(EngineHost& host);

  /// The one evolution path: re-materialise every id in `due` (unknown ids
  /// are skipped), replace each old version through the matcher's rebound
  /// — only the predicates that changed are re-indexed — and reschedule.
  /// Timer and variable-change waves both land here.
  void evolve_batch(const std::vector<SubscriptionId>& due, EngineHost& host);

  /// Fill version_ with the non-evolving version of the subscription at
  /// `now`; if the state asks for overestimation, range predicates are
  /// widened to the function's interval envelope over [now, now + MEI], a
  /// sound superset of every value it takes there. Uses the engine's shared
  /// scope and eval stack (maintenance path, not reentrant).
  void materialize_version(const EvolvingState& state, const VariableRegistry& registry,
                           SimTime now);

  EvolvingSubscriptionQueue esq_;
  std::unordered_map<SubscriptionId, EvolvingState> evolving_;
  /// Due subscriptions awaiting a change of one of their variables.
  std::set<SubscriptionId> ready_;
  VariableRegistry* listened_registry_ = nullptr;
  VariableRegistry::ListenerId listener_id_ = 0;
  SimTime armed_until_ = SimTime::max();
  bool timer_armed_ = false;
  /// Maintenance scratch, reused by every version and wave.
  std::vector<Predicate> version_;
  std::vector<EvolvingState*> evolved_;
};

}  // namespace evps
