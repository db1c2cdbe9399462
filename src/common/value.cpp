#include "common/value.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

namespace evps {

std::optional<int> Value::compare(const Value& rhs) const noexcept {
  if (is_string() != rhs.is_string()) return std::nullopt;
  if (is_string()) {
    const int c = as_string().compare(rhs.as_string());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Both numeric. Compare in double space; exact int/int comparison avoids
  // precision loss for large integers.
  if (is_int() && rhs.is_int()) {
    const auto a = as_int();
    const auto b = rhs.as_int();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  const double a = *numeric();
  const double b = *rhs.numeric();
  if (std::isnan(a) || std::isnan(b)) return std::nullopt;
  return a < b ? -1 : (a > b ? 1 : 0);
}

bool compares_as_double(const Value& c) noexcept {
  return !c.is_int() || std::abs(*c.numeric()) < 0x1p53;
}

std::string Value::to_string() const {
  if (is_int()) return std::to_string(as_int());
  if (is_string()) return "'" + as_string() + "'";
  std::ostringstream os;
  os.precision(17);  // max_digits10: exact round-trip through parse()
  os << as_double();
  // Keep a marker so round-tripping preserves double-ness of whole values.
  const std::string s = os.str();
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
    return s + ".0";
  }
  return s;
}

Value Value::parse(std::string_view text) {
  if (text.empty()) return Value{std::string{}};
  if (text.front() == '\'') {
    // Quoted string: strip the quotes if balanced.
    if (text.size() >= 2 && text.back() == '\'') {
      return Value{std::string(text.substr(1, text.size() - 2))};
    }
    return Value{std::string(text.substr(1))};
  }
  // Try integer first (full-width match required).
  {
    std::int64_t i = 0;
    const auto* begin = text.data();
    const auto* end = text.data() + text.size();
    auto [p, ec] = std::from_chars(begin, end, i);
    if (ec == std::errc{} && p == end) return Value{i};
  }
  // Then double.
  {
    double d = 0;
    const auto* begin = text.data();
    const auto* end = text.data() + text.size();
    auto [p, ec] = std::from_chars(begin, end, d);
    if (ec == std::errc{} && p == end) return Value{d};
  }
  return Value{std::string(text)};
}

}  // namespace evps
