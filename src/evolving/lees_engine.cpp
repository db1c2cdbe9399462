#include "evolving/lees_engine.hpp"

#include <algorithm>
#include <cstring>

namespace evps {
namespace {

/// Dedup key for a FULLY-evolving subscription towards `dest`, from its
/// compiled part: destination + epoch + order-independent, bit-exact
/// serialization of each compiled predicate (attribute id, operator, opcode
/// stream with operand bit patterns). Equal keys imply bit-identical
/// evaluation on every publication: same programs, same operators, same `t`
/// origin, same destination.
std::string lazy_dedup_key(NodeId dest, SimTime epoch,
                           const std::vector<CompiledPredicate>& preds) {
  std::vector<std::string> parts;
  parts.reserve(preds.size());
  for (const auto& cp : preds) {
    std::string s = std::to_string(cp.attr());
    s += '~';
    s += std::to_string(static_cast<int>(cp.op()));
    for (const auto& insn : cp.program().code()) {
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
  key += std::to_string(epoch.micros());
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
  // Fully-evolving: share one LEME part per identical group. The part is
  // compiled and verified before any state changes, so a malformed one
  // leaves the engine untouched; a failed install is undone from the table.
  auto preds = compile_evolving(sub);
  if (!lazy_dedup_.add(sub.id(), lazy_dedup_key(entry.dest, sub.epoch(), preds))) return;
  try {
    install_part(entry, std::move(preds), host);
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
