// The attribute value domain of the content-based data model.
//
// Publications carry (attribute, Value) pairs; predicates compare publication
// values against constants or against the result of evolution functions.
// Values are integers, doubles, or strings. Numeric values compare across
// the int/double divide (2 == 2.0); strings only compare with strings.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

namespace evps {

class Value {
 public:
  using Storage = std::variant<std::int64_t, double, std::string>;

  Value() noexcept : v_(std::int64_t{0}) {}
  Value(std::int64_t i) noexcept : v_(i) {}          // NOLINT(google-explicit-constructor)
  Value(int i) noexcept : v_(std::int64_t{i}) {}     // NOLINT(google-explicit-constructor)
  Value(double d) noexcept : v_(d) {}                // NOLINT(google-explicit-constructor)
  Value(std::string s) noexcept : v_(std::move(s)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* s) : v_(std::string(s)) {}         // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool is_int() const noexcept { return std::holds_alternative<std::int64_t>(v_); }
  [[nodiscard]] bool is_double() const noexcept { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_numeric() const noexcept { return !is_string(); }

  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  [[nodiscard]] double as_double() const { return std::get<double>(v_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(v_); }

  /// Numeric view: int promoted to double. Empty for strings.
  [[nodiscard]] std::optional<double> numeric() const noexcept {
    if (is_int()) return static_cast<double>(as_int());
    if (is_double()) return as_double();
    return std::nullopt;
  }

  /// Three-way comparison in the content-based matching sense.
  /// Returns nullopt when the values are incomparable (string vs numeric).
  [[nodiscard]] std::optional<int> compare(const Value& rhs) const noexcept;

  /// Exact equality (type-aware; 2 and 2.0 ARE equal, "2" and 2 are not).
  friend bool operator==(const Value& a, const Value& b) noexcept {
    auto c = a.compare(b);
    return c.has_value() && *c == 0;
  }

  [[nodiscard]] std::string to_string() const;

  /// Parse from text: integers, doubles, single-quoted or bare strings.
  [[nodiscard]] static Value parse(std::string_view text);

  friend std::ostream& operator<<(std::ostream& os, const Value& v) {
    return os << v.to_string();
  }

  [[nodiscard]] const Storage& storage() const noexcept { return v_; }

 private:
  Storage v_;
};

/// The one exact-int guard of analysis and matching: does reasoning over the
/// double a numeric constant converts to reproduce Value::compare? Doubles
/// always do. An int does only below 2^53 in magnitude: from 2^53 on,
/// distinct int64s round to one double (2^53 + 1 rounds to 2^53), and
/// int/int comparisons are exact, so a publication's int and the constant
/// can compare differently than their doubles. (Below 2^53 the constant is
/// exact and rounding is monotone, so any publication value's double orders
/// against it as the value itself does.)
[[nodiscard]] bool compares_as_double(const Value& c) noexcept;

}  // namespace evps
