#include "expr/variable_registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace evps {

void VariableRegistry::set(VarId var, double value, SimTime when) {
  if (var == kInvalidVarId) throw std::invalid_argument("cannot set an invalid VarId");
  if (var < ranges_.size() && ranges_[var].declared &&
      !(ranges_[var].lo <= value && value <= ranges_[var].hi)) {
    throw std::invalid_argument("value for variable '" + VariableTable::instance().name(var) +
                                "' violates its declared range");
  }
  if (var >= vars_.size()) vars_.resize(var + 1);
  auto& changes = vars_[var].changes;
  if (!changes.empty() && when < changes.back().first) {
    throw std::invalid_argument("variable '" + VariableTable::instance().name(var) +
                                "' history must be appended in time order");
  }
  if (!changes.empty() && when == changes.back().first) {
    changes.back().second = value;  // same-instant overwrite
  } else {
    changes.emplace_back(when, value);
  }
  ++vars_[var].sets;
  ++global_version_;
  for (auto& [id, listener] : listeners_) {
    listener(var, value, when);
  }
}

std::optional<double> VariableRegistry::get(VarId var) const noexcept {
  if (var >= vars_.size() || vars_[var].changes.empty()) return std::nullopt;
  return vars_[var].changes.back().second;
}

std::optional<double> VariableRegistry::get_at(VarId var, SimTime when) const noexcept {
  if (var >= vars_.size() || vars_[var].changes.empty()) return std::nullopt;
  const auto& changes = vars_[var].changes;
  // Last change with time <= when.
  auto pos = std::upper_bound(changes.begin(), changes.end(), when,
                              [](SimTime t, const auto& entry) { return t < entry.first; });
  if (pos == changes.begin()) return std::nullopt;  // variable did not exist yet
  return std::prev(pos)->second;
}

std::optional<SimTime> VariableRegistry::last_change(VarId var) const noexcept {
  if (var >= vars_.size() || vars_[var].changes.empty()) return std::nullopt;
  return vars_[var].changes.back().first;
}

std::vector<std::string> VariableRegistry::names() const {
  std::vector<std::string> out;
  for (VarId var = 0; var < vars_.size(); ++var) {
    if (!vars_[var].changes.empty()) out.push_back(VariableTable::instance().name(var));
  }
  return out;
}

std::vector<VarId> VariableRegistry::ids() const {
  std::vector<VarId> out;
  for (VarId var = 0; var < vars_.size(); ++var) {
    if (!vars_[var].changes.empty()) out.push_back(var);
  }
  return out;
}

std::vector<VarId> VariableRegistry::declared_ids() const {
  std::vector<VarId> out;
  for (VarId var = 0; var < ranges_.size(); ++var) {
    if (ranges_[var].declared) out.push_back(var);
  }
  return out;
}

void VariableRegistry::for_each_latest(const std::function<void(VarId, double)>& fn) const {
  for (VarId var = 0; var < vars_.size(); ++var) {
    if (!vars_[var].changes.empty()) fn(var, vars_[var].changes.back().second);
  }
}

void VariableRegistry::declare_range(VarId var, double lo, double hi) {
  if (var == kInvalidVarId) throw std::invalid_argument("cannot declare an invalid VarId");
  if (!std::isfinite(lo) || !std::isfinite(hi) || lo > hi) {
    throw std::invalid_argument("declared range for variable '" +
                                VariableTable::instance().name(var) +
                                "' must be a finite interval with lo <= hi");
  }
  if (var < vars_.size()) {
    for (const auto& change : vars_[var].changes) {
      if (!(lo <= change.second && change.second <= hi)) {
        throw std::invalid_argument("declared range for variable '" +
                                    VariableTable::instance().name(var) +
                                    "' excludes an already-recorded value");
      }
    }
  }
  if (var >= ranges_.size()) ranges_.resize(var + 1);
  ranges_[var] = Range{lo, hi, true};
}

std::optional<std::pair<double, double>> VariableRegistry::declared_range(
    VarId var) const noexcept {
  if (var >= ranges_.size() || !ranges_[var].declared) return std::nullopt;
  return std::make_pair(ranges_[var].lo, ranges_[var].hi);
}

VariableRegistry::ListenerId VariableRegistry::add_listener(Listener listener) {
  const ListenerId id = next_listener_++;
  listeners_.emplace(id, std::move(listener));
  return id;
}

void VariableRegistry::remove_listener(ListenerId id) { listeners_.erase(id); }

EvalScope& EvalScope::bind(VarId var, double value) {
  if (var >= override_stamp_.size()) {
    // First sight of a new variable universe size: grow to the full table so
    // subsequent binds never reallocate.
    const std::size_t n = std::max<std::size_t>(var + 1, VariableTable::instance().size());
    override_val_.resize(n, 0.0);
    override_stamp_.resize(n, 0);
  }
  override_val_[var] = value;
  override_stamp_[var] = stamp_;
  return *this;
}

double EvalScope::lookup(VarId var) const {
  double v = 0;
  if (override_at(var, v)) return v;
  if (var == elapsed_time_var_id()) return (now_ - epoch_).count_seconds();
  if (registry_ != nullptr) {
    if (const auto r = registry_->get_at(var, now_)) return *r;
  }
  throw UnboundVariableError(var == kInvalidVarId ? std::string_view{"<invalid>"}
                                                  : VariableTable::instance().name(var));
}

bool EvalScope::has(VarId var) const noexcept {
  double v = 0;
  if (override_at(var, v)) return true;
  if (var == elapsed_time_var_id()) return true;
  return registry_ != nullptr && registry_->get_at(var, now_).has_value();
}

}  // namespace evps
