// Reference matcher: linear scan over all stored subscriptions.
//
// Used as the correctness oracle in property tests and as the baseline in
// the matcher micro-benchmarks. Each predicate's interned AttrId is stored
// beside it so the scan probes publications by id instead of by string.
#pragma once

#include <map>

#include "common/attribute_table.hpp"
#include "matching/matcher.hpp"

namespace evps {

class BruteForceMatcher final : public Matcher {
 public:
  using Matcher::match;

  void add(SubscriptionId id, const std::vector<Predicate>& preds) override;
  bool remove(SubscriptionId id) override;
  void match(const Publication& pub, std::vector<SubscriptionId>& out) const override;
  [[nodiscard]] bool contains(SubscriptionId id) const override { return subs_.contains(id); }
  [[nodiscard]] std::size_t size() const override { return subs_.size(); }
  void collect_ids(std::vector<SubscriptionId>& out) const override {
    for (const auto& [id, stored] : subs_) out.push_back(id);
  }

 private:
  struct Stored {
    std::vector<Predicate> preds;
    std::vector<AttrId> attr_ids;  // parallel to preds
  };

  std::map<SubscriptionId, Stored> subs_;
};

}  // namespace evps
