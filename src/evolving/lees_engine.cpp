#include "evolving/lees_engine.hpp"

#include <algorithm>
#include <cstring>

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

void LeesEngine::do_add(const Installed& entry, EngineHost& host) {
  const auto& sub = *entry.sub;
  if (!sub.is_fully_evolving()) {
    LazyEngine::do_add(entry, host);
    return;
  }
  // Fully-evolving: share one LEME part per identical group. The key is
  // built (and programs compiled) before any state changes, so compile
  // failures leave the engine untouched; the canonical install is undone
  // from the table if verification rejects it below.
  if (!lazy_dedup_.add(sub.id(), lazy_dedup_key(entry.dest, sub))) return;
  try {
    LazyEngine::do_add(entry, host);
  } catch (...) {
    lazy_dedup_.remove(sub.id());
    throw;
  }
}

void LeesEngine::do_remove(const Installed& entry, EngineHost& host) {
  const DedupTable::RemoveAction action = lazy_dedup_.remove(entry.sub->id());
  if (!action.tracked) {
    LazyEngine::do_remove(entry, host);
    return;
  }
  if (!action.uninstall) return;  // a sharing member left; canonical stays
  LazyEngine::do_remove(entry, host);
  if (action.reinstall.valid()) {
    // The surviving member lives in its own id's shard.
    const Installed* next = installed_entry(action.reinstall);
    if (next != nullptr) LazyEngine::do_add(*next, host);
  }
}

inline bool LeesEngine::probe(const Part& part, const Publication& pub,
                              const ProbeContext& /*ctx*/, ShardScratch& sc) const {
  ++sc.lazy_evaluations;
  sc.scope.set_epoch(part.sub->epoch());
  for (const auto& cp : part.preds) {
    const Value* v = pub.get(cp.attr());
    if (v == nullptr || !cp.matches(*v, sc.scope, sc.stack)) return false;
  }
  return true;
}

void LeesEngine::export_audit_state(audit::EngineState& out) const {
  LazyEngine::export_audit_state(out);
  lazy_dedup_.for_each_group([&out](const std::string& key,
                                    const std::vector<SubscriptionId>& members) {
    out.dedup_groups.push_back(audit::DedupGroup{key, members, /*lazy=*/true});
  });
}

template class LazyEngine<LeesEngine, LeesPartState>;

}  // namespace evps
