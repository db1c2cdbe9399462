// Small string helpers shared across the message codec, workload parsers and
// command-line tools.
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace evps {

/// Split `text` on `sep`, honouring single-quoted segments (a separator
/// inside '...' does not split). Empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split_quoted(std::string_view text, char sep);

/// Plain split on a separator character. Empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text, char sep);

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix) noexcept;

/// Join items with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& items, std::string_view sep);

/// `v` as `std::ostream << v` prints it (default precision, 6 significant
/// digits): the number format of generated subscription and publication text.
[[nodiscard]] std::string format_number(double v);

/// Parse all of `text` as a T. Integers are plain decimal digits that fit T
/// (no sign, fraction, exponent or surrounding text); floating-point values
/// must be consumed in full and be finite. On failure returns false and
/// leaves `out` untouched.
template <typename T>
  requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
[[nodiscard]] bool parse_number(std::string_view text, T& out) noexcept {
  if constexpr (std::is_integral_v<T>) {
    if (text.starts_with('-')) return false;  // from_chars never takes '+'
  }
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

/// Numeric command-line flag `<prefix><number>`: false when `arg` does not
/// start with `prefix`; otherwise parses the rest into `out` with
/// parse_number and returns true, throwing std::invalid_argument when the
/// value is malformed.
template <typename T>
bool parse_number_flag(std::string_view arg, std::string_view prefix, T& out) {
  if (!arg.starts_with(prefix)) return false;
  if (!parse_number(arg.substr(prefix.size()), out)) {
    throw std::invalid_argument("bad numeric value: " + std::string(arg));
  }
  return true;
}

}  // namespace evps
