#include "message/advertisement.hpp"

namespace evps {

bool Advertisement::covers(const Publication& pub) const {
  for (const auto& p : predicates_) {
    const Value* v = pub.get(p.attribute());
    if (v == nullptr) return false;
    if (p.is_evolving()) continue;  // evolving advert predicates: unconstrained
    if (!p.matches(*v)) return false;
  }
  return true;
}

std::string Advertisement::to_string() const {
  std::string out = id_.str() + "@" + publisher_.str() + " adv{";
  for (std::size_t i = 0; i < predicates_.size(); ++i) {
    if (i != 0) out += "; ";
    out += predicates_[i].to_string();
  }
  out += "}";
  return out;
}

}  // namespace evps
