#include "evolving/ves_engine.hpp"

#include <cmath>

#include "evolving/window_envelope.hpp"

namespace evps {

VesEngine::~VesEngine() {
  if (listened_registry_ != nullptr) listened_registry_->remove_listener(listener_id_);
}

void VesEngine::do_add(const Installed& entry, EngineHost& host) {
  const auto& sub = *entry.sub;
  if (!sub.is_evolving()) {
    matcher_add_static(entry);
    return;
  }
  // Compiled and verified before any state changes: materialize_version
  // runs these programs without bounds checks.
  EvolvingState state{.sub = entry.sub,
                      .preds = compile_evolving(sub),
                      .overestimate = config_.overestimate_forwarding && entry.dest_is_broker};
  ensure_listener(host);

  const SimTime now = host.now();
  auto& registry = host.variables();
  {
    // Initial version (Figure 3): evaluate the predicate functions with the
    // current evolution-variable values and insert into the matcher.
    const ScopedTimer timer(costs_.maintenance);
    materialize_version(state, registry, now);
    matcher_->add(sub.id(), version_);
  }
  state.versions = discrete_versions(state.preds, registry);
  evolving_.emplace(sub.id(), std::move(state));

  esq_.push(sub.id(), now + effective_mei(sub));
  arm_timer(host);
}

void VesEngine::do_remove(const Installed& entry, EngineHost& /*host*/) {
  const SubscriptionId id = entry.sub->id();
  if (!entry.sub->is_evolving()) {
    matcher_remove_static(id);
    return;
  }
  matcher_->remove(id);
  esq_.remove(id);
  ready_.erase(id);
  evolving_.erase(id);
}

void VesEngine::ensure_listener(EngineHost& host) {
  auto& registry = host.variables();
  if (listened_registry_ == &registry) return;
  if (listened_registry_ != nullptr) listened_registry_->remove_listener(listener_id_);
  listened_registry_ = &registry;
  listener_id_ = registry.add_listener(
      [this, &host](VarId /*var*/, double /*value*/, SimTime /*when*/) {
        on_variable_changed(host);
      });
}

void VesEngine::arm_timer(EngineHost& host) {
  const auto next = esq_.next_due();
  if (!next.has_value()) return;
  if (timer_armed_ && armed_until_ <= *next) return;
  timer_armed_ = true;
  armed_until_ = *next;
  const Duration delay = *next - host.now();
  host.schedule(delay < Duration::zero() ? Duration::zero() : delay,
                [this, &host]() { on_timer(host); });
}

void VesEngine::on_timer(EngineHost& host) {
  timer_armed_ = false;
  armed_until_ = SimTime::max();
  std::vector<SubscriptionId> due;
  esq_.pop_due(host.now(), due);
  std::vector<SubscriptionId> to_evolve;
  for (const auto id : due) {
    const auto it = evolving_.find(id);
    if (it == evolving_.end()) continue;  // concurrently unsubscribed
    // The version is out of date if it reads the always-changing `t`, or if
    // one of its discrete variables changed since (the stamp moved).
    const EvolvingState& state = it->second;
    if (reads_time(state.preds) ||
        discrete_versions(state.preds, host.variables()) != state.versions) {
      to_evolve.push_back(id);
    } else {
      // Park until one of its variables changes (paper's ready list).
      ready_.insert(id);
    }
  }
  evolve_batch(to_evolve, host);
  arm_timer(host);
}

void VesEngine::on_variable_changed(EngineHost& host) {
  if (ready_.empty()) return;
  // A parked stamp was current when it parked, and every later change was
  // reported here at once, so only the variable just changed can have moved
  // it: the moved stamps are the parked subscriptions that read it.
  std::vector<SubscriptionId> to_evolve;
  for (const auto id : ready_) {
    const auto it = evolving_.find(id);
    if (it != evolving_.end() &&
        discrete_versions(it->second.preds, host.variables()) != it->second.versions) {
      to_evolve.push_back(id);
    }
  }
  for (const auto id : to_evolve) ready_.erase(id);
  evolve_batch(to_evolve, host);
  arm_timer(host);
}

void VesEngine::materialize_version(const EvolvingState& state, const VariableRegistry& registry,
                                    SimTime now) {
  const auto& sub = *state.sub;
  auto& out = version_;
  out.clear();
  scope_.rebind(&registry, now);
  scope_.set_epoch(sub.epoch());
  // Overestimation widens range predicates to the function's envelope over
  // the upcoming MEI window (window_envelope.hpp, DESIGN.md §9.2), which
  // contains every bound the exact path could materialise before the next
  // evolution. Equality and inequality stay exact.
  const WindowEnvelope window{registry, now, sub.epoch(), effective_mei(sub)};
  std::size_t i = 0;  // state.preds are the evolving predicates, in order
  for (const auto& p : sub.predicates()) {
    if (!p.is_evolving()) {
      out.push_back(p);
      continue;
    }
    const CompiledPredicate& cp = state.preds[i++];
    const bool range = p.op() != RelOp::kEq && p.op() != RelOp::kNe;
    bool never = false;
    double bound = 0.0;
    if (state.overestimate && range) {
      if (window.widen(p, cp.program(), out)) continue;
      never = true;  // always NaN over the window
    } else {
      bound = cp.bound(scope_, eval_stack_, never);
    }
    // Fail closed: an unbound variable (or an always-NaN envelope) yields a
    // version that can never be satisfied (NaN is incomparable and kLt never
    // matches it).
    out.push_back(never ? Predicate{p.attribute(), RelOp::kLt, Value{std::nan("")}}
                        : Predicate{p.attribute(), p.op(), Value{bound}});
  }
}

void VesEngine::evolve_batch(const std::vector<SubscriptionId>& due, EngineHost& host) {
  if (due.empty()) return;
  auto& registry = host.variables();
  const SimTime now = host.now();
  evolved_.clear();
  {
    // Replacing the stored versions — the matcher work — is the dominant
    // VES maintenance cost (Figure 9 discussion). One timer sample covers
    // the whole wave; benches consume maintenance.sum(), so batching the
    // measurement changes nothing reported.
    const ScopedTimer timer(costs_.maintenance);
    for (const auto id : due) {
      const auto it = evolving_.find(id);
      if (it == evolving_.end()) continue;
      materialize_version(it->second, registry, now);
      matcher_->rebound(id, version_);
      evolved_.push_back(&it->second);
    }
  }
  costs_.evolutions += evolved_.size();
  for (EvolvingState* state : evolved_) {
    state->versions = discrete_versions(state->preds, registry);
    esq_.push(state->sub->id(), now + effective_mei(*state->sub));
  }
}

}  // namespace evps
