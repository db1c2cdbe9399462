#include "evolving/ves_engine.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/verifier.hpp"
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
  ensure_listener(host);

  EvolvingState state;
  state.sub = entry.sub;
  state.progs.reserve(sub.predicates().size());
  for (const auto& p : sub.predicates()) {
    state.progs.push_back(p.is_evolving() ? ExprProgram::compile(*p.fun()) : ExprProgram{});
    // Gate before install: materialize_version runs these programs without
    // bounds checks, so malformed ones must never enter the state table.
    if (p.is_evolving()) verify_or_throw(state.progs.back());
    for (const VarId var : state.progs.back().variables()) state.vars.push_back(var);
  }
  std::sort(state.vars.begin(), state.vars.end());
  state.vars.erase(std::unique(state.vars.begin(), state.vars.end()), state.vars.end());
  const auto t_pos =
      std::find(state.vars.begin(), state.vars.end(), elapsed_time_var_id());
  if (t_pos != state.vars.end()) {
    state.depends_on_time = true;
    state.vars.erase(t_pos);
  }
  state.overestimate = config_.overestimate_forwarding && entry.dest_is_broker;

  const SimTime now = host.now();
  auto& registry = host.variables();
  {
    // Initial version (Figure 3): evaluate the predicate functions with the
    // current evolution-variable values and insert into the matcher.
    const ScopedTimer timer(costs_.maintenance);
    matcher_->add(sub.id(), materialize_version(state, registry, now));
  }
  state.seen_versions.reserve(state.vars.size());
  for (const VarId var : state.vars) state.seen_versions.push_back(registry.version(var));
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
  listener_id_ =
      registry.add_listener([this, &host](VarId var, double /*value*/, SimTime /*when*/) {
        on_variable_changed(var, host);
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
    if (needs_evolution(it->second, host.variables())) {
      to_evolve.push_back(id);
    } else {
      // Park until one of its variables changes (paper's ready list).
      ready_.insert(id);
    }
  }
  evolve_batch(to_evolve, host);
  arm_timer(host);
}

void VesEngine::on_variable_changed(VarId var, EngineHost& host) {
  if (ready_.empty()) return;
  std::vector<SubscriptionId> to_evolve;
  for (const auto id : ready_) {
    const auto it = evolving_.find(id);
    if (it != evolving_.end() &&
        std::binary_search(it->second.vars.begin(), it->second.vars.end(), var)) {
      to_evolve.push_back(id);
    }
  }
  for (const auto id : to_evolve) ready_.erase(id);
  evolve_batch(to_evolve, host);
  arm_timer(host);
}

bool VesEngine::needs_evolution(const EvolvingState& state,
                                const VariableRegistry& registry) const {
  if (state.depends_on_time) return true;  // continuous variables always change
  // seen_versions records every depended-on variable, with 0 for variables
  // unknown at materialisation time — so a variable appearing later reads as
  // a version change too.
  for (std::size_t i = 0; i < state.vars.size(); ++i) {
    if (registry.version(state.vars[i]) != state.seen_versions[i]) return true;
  }
  return false;
}

std::vector<Predicate> VesEngine::materialize_version(const EvolvingState& state,
                                                      const VariableRegistry& registry,
                                                      SimTime now) {
  const auto& sub = *state.sub;
  const auto& preds = sub.predicates();
  std::vector<Predicate> out;
  out.reserve(preds.size());
  scope_.rebind(&registry, now);
  scope_.set_epoch(sub.epoch());
  // Overestimation widens range predicates to the function's envelope over
  // the upcoming MEI window (window_envelope.hpp, DESIGN.md §9.2), which
  // contains every bound the exact path could materialise before the next
  // evolution. Equality and inequality stay exact.
  const WindowEnvelope window{registry, now, sub.epoch(), effective_mei(sub)};
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const auto& p = preds[i];
    if (!p.is_evolving()) {
      out.push_back(p);
      continue;
    }
    const bool range = p.op() != RelOp::kEq && p.op() != RelOp::kNe;
    bool never = false;
    double bound = 0.0;
    if (state.overestimate && range) {
      if (window.widen(p, state.progs[i], out)) continue;
      never = true;  // always NaN over the window
    } else {
      try {
        bound = state.progs[i].eval(scope_, eval_stack_);
      } catch (const UnboundVariableError&) {
        never = true;
      }
    }
    // Fail closed: an unbound variable (or an always-NaN envelope) yields a
    // version that can never be satisfied (NaN is incomparable and kLt never
    // matches it).
    out.push_back(never ? Predicate{p.attribute(), RelOp::kLt, Value{std::nan("")}}
                        : Predicate{p.attribute(), p.op(), Value{bound}});
  }
  return out;
}

void VesEngine::evolve(SubscriptionId id, EvolvingState& state, EngineHost& host) {
  auto& registry = host.variables();
  const SimTime now = host.now();
  {
    // Replace the stored version: the remove + insert against the matcher is
    // the dominant VES maintenance cost (Figure 9 discussion).
    const ScopedTimer timer(costs_.maintenance);
    const std::vector<Predicate> version = materialize_version(state, registry, now);
    matcher_->remove(id);
    matcher_->add(id, version);
  }
  ++costs_.evolutions;
  for (std::size_t i = 0; i < state.vars.size(); ++i) {
    state.seen_versions[i] = registry.version(state.vars[i]);
  }
  esq_.push(id, now + effective_mei(*state.sub));
}

void VesEngine::evolve_batch(const std::vector<SubscriptionId>& due, EngineHost& host) {
  if (due.empty()) return;
  if (due.size() == 1) {
    const auto it = evolving_.find(due.front());
    if (it != evolving_.end()) evolve(due.front(), it->second, host);
    return;
  }
  auto& registry = host.variables();
  const SimTime now = host.now();
  std::vector<MatcherBatchEntry> batch;
  batch.reserve(due.size());
  std::vector<EvolvingState*> states;
  states.reserve(due.size());
  {
    // One timer sample over the whole wave; benches consume maintenance.sum()
    // so batching the measurement does not change what is reported.
    const ScopedTimer timer(costs_.maintenance);
    for (const auto id : due) {
      const auto it = evolving_.find(id);
      if (it == evolving_.end()) continue;
      batch.push_back(MatcherBatchEntry{id, materialize_version(it->second, registry, now)});
      states.push_back(&it->second);
      matcher_->remove(id);
    }
    matcher_->add_batch(std::move(batch));
  }
  costs_.evolutions += states.size();
  for (std::size_t i = 0; i < states.size(); ++i) {
    EvolvingState& state = *states[i];
    for (std::size_t v = 0; v < state.vars.size(); ++v) {
      state.seen_versions[v] = registry.version(state.vars[v]);
    }
    esq_.push(state.sub->id(), now + effective_mei(*state.sub));
  }
}

}  // namespace evps
