#include "evolving/static_engine.hpp"

namespace evps {

void StaticEngine::do_add(const Installed& entry, EngineHost& /*host*/) {
  if (entry.sub->is_evolving()) {
    throw std::invalid_argument("static engine cannot install evolving subscription " +
                                entry.sub->id().str());
  }
  matcher_add_static(entry);
}

void StaticEngine::do_remove(const Installed& entry, EngineHost& /*host*/) {
  matcher_remove_static(entry.sub->id());
}

}  // namespace evps
