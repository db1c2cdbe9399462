#include "matching/brute_force_matcher.hpp"

namespace evps {

void BruteForceMatcher::add(SubscriptionId id, const std::vector<Predicate>& preds) {
  require_static(preds);
  Stored stored{preds, {}};
  stored.attr_ids.reserve(preds.size());
  for (const auto& p : preds) stored.attr_ids.push_back(p.attr_id());
  const auto [it, inserted] = subs_.emplace(id, std::move(stored));
  if (!inserted) throw std::invalid_argument("duplicate subscription id " + id.str());
}

bool BruteForceMatcher::remove(SubscriptionId id) { return subs_.erase(id) > 0; }

void BruteForceMatcher::match(const Publication& pub, std::vector<SubscriptionId>& out) const {
  for (const auto& [id, stored] : subs_) {
    if (stored.preds.empty()) continue;
    bool ok = true;
    for (std::size_t i = 0; i < stored.preds.size(); ++i) {
      const Value* v = pub.get(stored.attr_ids[i]);
      if (v == nullptr || !stored.preds[i].matches(*v)) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(id);
  }
}

}  // namespace evps
