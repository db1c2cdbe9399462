// Broker-local store of evolution variables (Section III-B / V).
//
// Each broker keeps the current value of every discrete evolution variable it
// knows about (e.g. in-game visibility `v`, a stock price, outgoing
// bandwidth). Values are piecewise-constant over virtual time and the full
// change history is retained, which lets the ground-truth oracle re-evaluate
// any subscription at the exact instant a publication entered the system
// (Section V-D consistency model).
//
// Variables are interned process-wide into dense `VarId`s (see
// `common/variable_table.hpp`); the registry stores one history per id in a
// flat vector, so the per-publication evaluation hot path never hashes or
// compares variable names. String-keyed overloads remain for the wire format,
// tests and diagnostics.
//
// The continuous variable `t` (elapsed time since a subscription was
// installed, "initialized to 0 at the time of subscription") is not stored
// here: it is derived from the evaluation scope's clock and the
// subscription's epoch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.hpp"
#include "common/variable_table.hpp"
#include "expr/ast.hpp"

namespace evps {

/// Name of the reserved continuous evolution variable: elapsed seconds since
/// the owning subscription was installed.
inline constexpr std::string_view kElapsedTimeVar = "t";

class VariableRegistry {
 public:
  using ListenerId = std::uint64_t;
  /// Invoked synchronously after a variable changes value.
  using Listener = std::function<void(VarId var, double value, SimTime when)>;

  VariableRegistry() = default;

  /// Set `var` to `value` effective at `when`. `when` must be >= the time of
  /// the variable's previous change (piecewise-constant history, appended in
  /// time order); violations throw std::invalid_argument.
  void set(VarId var, double value, SimTime when);
  void set(std::string_view name, double value, SimTime when) {
    set(VariableTable::instance().intern(name), value, when);
  }

  [[nodiscard]] bool has(VarId var) const noexcept {
    return var < vars_.size() && !vars_[var].changes.empty();
  }
  [[nodiscard]] bool has(std::string_view name) const noexcept {
    return has(VariableTable::instance().find(name));
  }

  /// Latest value, or nullopt if never set.
  [[nodiscard]] std::optional<double> get(VarId var) const noexcept;
  [[nodiscard]] std::optional<double> get(std::string_view name) const noexcept {
    return get(VariableTable::instance().find(name));
  }

  /// Value in effect at time `when` (the last change at or before `when`),
  /// or nullopt if the variable did not exist yet.
  [[nodiscard]] std::optional<double> get_at(VarId var, SimTime when) const noexcept;
  [[nodiscard]] std::optional<double> get_at(std::string_view name, SimTime when) const noexcept {
    return get_at(VariableTable::instance().find(name), when);
  }

  /// Number of set() calls applied to `var` (0 if unknown), same-instant
  /// overwrites included. Monotonic.
  [[nodiscard]] std::uint64_t version(VarId var) const noexcept {
    return var < vars_.size() ? vars_[var].sets : 0;
  }
  [[nodiscard]] std::uint64_t version(std::string_view name) const noexcept {
    return version(VariableTable::instance().find(name));
  }

  /// Total number of changes applied across all variables. Monotonic.
  [[nodiscard]] std::uint64_t global_version() const noexcept { return global_version_; }

  /// Time of the last change to `var` (nullopt if unknown).
  [[nodiscard]] std::optional<SimTime> last_change(VarId var) const noexcept;
  [[nodiscard]] std::optional<SimTime> last_change(std::string_view name) const noexcept {
    return last_change(VariableTable::instance().find(name));
  }

  /// Names of all variables with at least one recorded change, in interning
  /// order (diagnostics / wire format).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Ids of all variables with at least one recorded change, ascending.
  [[nodiscard]] std::vector<VarId> ids() const;

  /// Ids of all variables with a declared range, ascending — including ones
  /// never set (snapshot export needs declarations without values).
  [[nodiscard]] std::vector<VarId> declared_ids() const;

  /// Invoke `fn(var, latest_value)` for every known variable (snapshot
  /// piggybacking).
  void for_each_latest(const std::function<void(VarId, double)>& fn) const;

  // --- declared ranges (static analysis, broker-local) ----------------------
  /// Declare that `var` only ever takes values in [lo, hi]. The static
  /// analyzer (analysis/analyzer.hpp) uses declared ranges to bound evolving
  /// predicates; `set` enforces the declaration from then on (out-of-range
  /// updates throw std::invalid_argument). Bounds must be finite with
  /// lo <= hi. Declarations are broker-local contract metadata — they are not
  /// propagated on the wire.
  void declare_range(VarId var, double lo, double hi);
  void declare_range(std::string_view name, double lo, double hi) {
    declare_range(VariableTable::instance().intern(name), lo, hi);
  }

  /// Declared [lo, hi] range of `var`, or nullopt if none was declared.
  [[nodiscard]] std::optional<std::pair<double, double>> declared_range(VarId var) const noexcept;
  [[nodiscard]] std::optional<std::pair<double, double>> declared_range(
      std::string_view name) const noexcept {
    return declared_range(VariableTable::instance().find(name));
  }

  ListenerId add_listener(Listener listener);
  void remove_listener(ListenerId id);

 private:
  struct History {
    // (change time, value), strictly ordered by time. Later entries override.
    std::vector<std::pair<SimTime, double>> changes;
    std::uint64_t sets = 0;  // every set(), including same-instant overwrites
  };
  struct Range {
    double lo = 0.0;
    double hi = 0.0;
    bool declared = false;
  };
  // Histories indexed by process-wide VarId; ids this registry has never
  // seen hold empty histories (the variable universe is small and shared).
  std::vector<History> vars_;
  // Declared ranges indexed by VarId (sparse; most slots undeclared).
  std::vector<Range> ranges_;
  std::uint64_t global_version_ = 0;
  std::uint64_t next_listener_ = 1;
  std::map<ListenerId, Listener> listeners_;
};

/// Evaluation scope combining a VariableRegistry snapshot-in-time with the
/// per-subscription elapsed-time variable and optional local overrides.
///
/// Engines keep one EvalScope alive and *rebind* it per publication
/// (`rebind`) and per evolving part (`set_epoch`): overrides live in an
/// epoch-stamped dense slot array indexed by VarId, so rebinding invalidates
/// them in O(1) without freeing memory, and steady-state evaluation performs
/// no heap allocation. Compiled programs resolve variables by VarId.
class EvalScope {
 public:
  EvalScope() noexcept = default;

  /// `registry` may be null (then only `t` and overrides resolve).
  /// `now` is the evaluation instant; `epoch` is the subscription install
  /// time, so `t = (now - epoch)` in seconds.
  EvalScope(const VariableRegistry* registry, SimTime now, SimTime epoch) noexcept
      : registry_(registry), now_(now), epoch_(epoch) {}

  /// Re-anchor the scope for a new evaluation round: swaps the registry and
  /// clock and drops all overrides (by stamp bump, not by clearing).
  void rebind(const VariableRegistry* registry, SimTime now) noexcept {
    registry_ = registry;
    now_ = now;
    if (++stamp_ == 0) {  // stamp wrapped: invalidate every slot explicitly
      std::fill(override_stamp_.begin(), override_stamp_.end(), 0);
      stamp_ = 1;
    }
  }

  /// Switch the subscription epoch (`t` anchor) without touching overrides;
  /// O(1), used per evolving part within one publication.
  void set_epoch(SimTime epoch) noexcept { epoch_ = epoch; }

  /// Bind (or shadow) a variable locally, e.g. piggybacked snapshot values.
  EvalScope& bind(VarId var, double value);
  EvalScope& bind(std::string_view name, double value) {
    return bind(VariableTable::instance().intern(name), value);
  }

  /// Value of `var` under this scope: an override, else `t` from the
  /// clock, else the registry value at `now`. Throws UnboundVariableError.
  [[nodiscard]] double lookup(VarId var) const;
  [[nodiscard]] bool has(VarId var) const noexcept;

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] SimTime epoch() const noexcept { return epoch_; }

 private:
  [[nodiscard]] bool override_at(VarId var, double& out) const noexcept {
    if (var < override_stamp_.size() && override_stamp_[var] == stamp_) {
      out = override_val_[var];
      return true;
    }
    return false;
  }

  const VariableRegistry* registry_ = nullptr;
  SimTime now_{};
  SimTime epoch_{};
  // Dense override slots indexed by VarId; a slot is bound iff its stamp
  // matches the current rebind stamp. Grown on demand (the variable universe
  // is stable, so steady state never reallocates).
  std::vector<double> override_val_;
  std::vector<std::uint32_t> override_stamp_;
  std::uint32_t stamp_ = 1;
};

}  // namespace evps
