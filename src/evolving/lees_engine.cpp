#include "evolving/lees_engine.hpp"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.hpp"

namespace evps {
namespace {

/// Dedup key for a FULLY-evolving subscription towards `dest`: destination +
/// epoch + order-independent, bit-exact serialization of each compiled
/// predicate (opcode stream with operand bit patterns). Equal keys imply
/// bit-identical evaluation on every publication: same programs, same
/// operators, same `t` origin, same destination.
std::string lazy_dedup_key(NodeId dest, const Subscription& sub) {
  std::vector<std::string> parts;
  parts.reserve(sub.predicates().size());
  for (const auto& p : sub.predicates()) {
    std::string s = std::to_string(p.attr_id());
    s += '~';
    s += std::to_string(static_cast<int>(p.op()));
    const ExprProgram prog = ExprProgram::compile(*p.fun());
    for (const auto& insn : prog.code()) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &insn.k, sizeof(bits));
      s += '~';
      s += std::to_string(static_cast<int>(insn.op));
      s += ',';
      s += std::to_string(insn.argc);
      s += ',';
      s += std::to_string(insn.var);
      s += ',';
      s += std::to_string(bits);
    }
    parts.push_back(std::move(s));
  }
  std::sort(parts.begin(), parts.end());
  std::string key = std::to_string(dest.value());
  key += '@';
  key += std::to_string(sub.epoch().micros());
  for (const auto& part : parts) {
    key += '|';
    key += part;
  }
  return key;
}

}  // namespace

LeesEngine::LeesEngine(const EngineConfig& config) : BrokerEngine(config) {
  leme_.resize(shard_count());
  shard_scratch_.resize(shard_count());
}

void LeesEngine::do_add(const Installed& entry, EngineHost& /*host*/) {
  const auto& sub = *entry.sub;
  if (!sub.is_evolving()) {
    matcher_add_static(entry);
    return;
  }
  const auto static_part = sub.static_predicates();
  if (static_part.empty()) {
    // Fully-evolving: share one LEME part per identical group. The key is
    // built (and programs compiled) before any state changes, so compile
    // failures leave the engine untouched; the canonical install is undone
    // from the table if verification rejects it below.
    if (!lazy_dedup_.add(sub.id(), lazy_dedup_key(entry.dest, sub))) return;
    try {
      auto& leme = leme_for(sub.id());
      leme.add(leme.make_part(entry.sub, false), entry.dest);
    } catch (...) {
      lazy_dedup_.remove(sub.id());
      throw;
    }
    return;
  }
  auto& leme = leme_for(sub.id());
  auto part = leme.make_part(entry.sub, !static_part.empty());
  if (part.has_static_part) matcher_->add(sub.id(), static_part);
  leme.add(std::move(part), entry.dest);
}

void LeesEngine::do_remove(const Installed& entry, EngineHost& /*host*/) {
  const auto& sub = *entry.sub;
  if (!sub.is_evolving()) {
    matcher_remove_static(sub.id());
    return;
  }
  if (!sub.is_fully_evolving()) matcher_->remove(sub.id());
  const DedupTable::RemoveAction action = lazy_dedup_.remove(sub.id());
  if (!action.tracked) {
    leme_for(sub.id()).remove(sub.id(), entry.dest);
    return;
  }
  if (!action.uninstall) return;  // a sharing member left; canonical stays
  leme_for(sub.id()).remove(sub.id(), entry.dest);
  if (action.reinstall.valid()) {
    const Installed* next = installed_entry(action.reinstall);
    if (next != nullptr) {
      // The surviving member lives in its own id's shard.
      auto& leme = leme_for(action.reinstall);
      leme.add(leme.make_part(next->sub, false), next->dest);
    }
  }
}

bool LeesEngine::evolving_part_matches(const Leme::Part& part, const Publication& pub,
                                       const EvalScope& scope, std::vector<double>& stack) {
  for (const auto& cp : part.preds) {
    const Value* v = pub.get(cp.attr());
    if (v == nullptr || !cp.matches(*v, scope, stack)) return false;
  }
  return true;
}

void LeesEngine::process_m1(const std::vector<SubscriptionId>& m1,
                            std::vector<NodeId>& destinations) {
  for (const auto id : m1) {
    if (leme_for(id).note_m1(id)) continue;  // static half of a split subscription
    const Installed* entry = installed_entry(id);
    if (entry == nullptr) continue;
    // Purely-static match: forward, and settle the destination's LEME group
    // in every shard (exact done-skip regardless of K).
    destinations.push_back(entry->dest);
    for (auto& leme : leme_) leme.mark_done(entry->dest);
  }
}

void LeesEngine::lazy_eval_phase(const Publication& pub, const VariableSnapshot* snapshot,
                                 const VariableRegistry& registry, SimTime now,
                                 std::vector<NodeId>& destinations) {
  auto task = [&](std::size_t s) {
    ShardScratch& sc = shard_scratch_[s];
    sc.dests.clear();
    const Leme& leme = leme_[s];
    if (leme.size() == 0) return;
    rebind_publication_scope(sc.scope, pub, snapshot, registry, now);
    for (const auto& [dest, group] : leme.groups()) {
      if (leme.done(group)) continue;
      for (const auto& part : group.parts) {
        if (part.has_static_part && !leme.m1_hit(part)) continue;
        ++sc.lazy_evaluations;
        sc.scope.set_epoch(part.sub->epoch());
        if (evolving_part_matches(part, pub, sc.scope, sc.stack)) {
          sc.dests.push_back(dest);
          break;  // early exit: this (shard, destination) is settled
        }
      }
    }
  };
  if (leme_.size() == 1) {
    task(0);
  } else {
    ThreadPool::shared().run_indexed(leme_.size(), task);
  }
  for (ShardScratch& sc : shard_scratch_) {
    destinations.insert(destinations.end(), sc.dests.begin(), sc.dests.end());
    costs_.lazy_evaluations += sc.lazy_evaluations;
    sc.lazy_evaluations = 0;
  }
}

void LeesEngine::do_match(const Publication& pub, const VariableSnapshot* snapshot,
                          EngineHost& host, std::vector<NodeId>& destinations) {
  // M1: standard matcher over static parts and purely-static subscriptions
  // (parallel across shards inside the ShardedMatcher).
  m1_.clear();
  {
    const ScopedTimer timer(costs_.match);
    matcher_->match(pub, m1_);
  }
  for (auto& leme : leme_) leme.begin_match();
  process_m1(m1_, destinations);

  // M2: on-demand evaluation of evolving parts, one worker per shard, with
  // early exit once a destination is known to need the publication.
  const ScopedTimer timer(costs_.lazy_eval);
  lazy_eval_phase(pub, snapshot, host.variables(), host.now(), destinations);
}

void LeesEngine::do_match_batch(std::span<const Publication* const> pubs,
                                const VariableSnapshot* snapshot, EngineHost& host,
                                std::vector<std::vector<NodeId>>& destinations) {
  // One pool dispatch covers the matcher phase of the whole batch; the lazy
  // phases then run per publication (each its own fan-out), preserving exact
  // equivalence with a do_match loop — including CLEES-style engines' cache
  // trajectories, since per-publication ordering is unchanged.
  {
    const ScopedTimer timer(costs_.match);
    matcher_->match_batch(pubs, m1_batch_);
  }
  const VariableRegistry& registry = host.variables();
  const SimTime now = host.now();
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    for (auto& leme : leme_) leme.begin_match();
    process_m1(m1_batch_[i], destinations[i]);
    const ScopedTimer timer(costs_.lazy_eval);
    lazy_eval_phase(*pubs[i], snapshot, registry, now, destinations[i]);
  }
}

void LeesEngine::export_audit_state(audit::EngineState& out) const {
  BrokerEngine::export_audit_state(out);
  for (const Leme& leme : leme_) {
    for (const auto& [dest, group] : leme.groups()) {
      for (const Leme::Part& part : group.parts) {
        out.lazy_entries.push_back(audit::LazyEntry{part.id, dest});
      }
    }
  }
  lazy_dedup_.for_each_group([&out](const std::string& key,
                                    const std::vector<SubscriptionId>& members) {
    out.dedup_groups.push_back(audit::DedupGroup{key, members, /*lazy=*/true});
  });
}

}  // namespace evps
