#include "message/subscription.hpp"

namespace evps {

bool Subscription::is_evolving() const noexcept {
  for (const auto& p : predicates_) {
    if (p.is_evolving()) return true;
  }
  return false;
}

bool Subscription::is_fully_evolving() const noexcept {
  if (predicates_.empty()) return false;
  for (const auto& p : predicates_) {
    if (!p.is_evolving()) return false;
  }
  return true;
}

std::vector<Predicate> Subscription::static_predicates() const {
  std::vector<Predicate> out;
  for (const auto& p : predicates_) {
    if (!p.is_evolving()) out.push_back(p);
  }
  return out;
}

std::vector<Predicate> Subscription::evolving_predicates() const {
  std::vector<Predicate> out;
  for (const auto& p : predicates_) {
    if (p.is_evolving()) out.push_back(p);
  }
  return out;
}

std::set<std::string> Subscription::variables() const {
  std::set<std::string> out;
  for (const auto& p : predicates_) {
    if (p.is_evolving()) p.fun()->collect_variables(out);
  }
  return out;
}

bool Subscription::matches(const Publication& pub) const {
  if (predicates_.empty()) return false;
  for (const auto& p : predicates_) {
    const Value* v = pub.get(p.attr_id());
    if (v == nullptr || !p.matches(*v)) return false;
  }
  return true;
}

std::string Subscription::to_string() const {
  std::string out = id_.str() + "@" + subscriber_.str() + " {";
  for (std::size_t i = 0; i < predicates_.size(); ++i) {
    if (i != 0) out += "; ";
    out += predicates_[i].to_string();
  }
  out += "}";
  return out;
}

}  // namespace evps
