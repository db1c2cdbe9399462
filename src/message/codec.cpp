#include "message/codec.hpp"

#include <charconv>
#include <unordered_set>

#include "common/string_util.hpp"
#include "expr/parser.hpp"

namespace evps {
namespace {

/// Try to interpret `text` as a literal constant (number or quoted string).
std::optional<Value> parse_literal(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text.front() == '\'') {
    if (text.size() < 2 || text.back() != '\'') {
      throw CodecError("unterminated string literal: " + std::string(text));
    }
    return Value{std::string(text.substr(1, text.size() - 2))};
  }
  {
    std::int64_t i = 0;
    auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), i);
    if (ec == std::errc{} && p == text.data() + text.size()) return Value{i};
  }
  {
    double d = 0;
    auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), d);
    if (ec == std::errc{} && p == text.data() + text.size()) return Value{d};
  }
  return std::nullopt;
}

/// Find the relational operator in a predicate string; returns
/// (attribute, op, operand-text).
std::tuple<std::string_view, RelOp, std::string_view> split_predicate(std::string_view text) {
  // Scan for the first of <=, >=, !=, <>, <, >, =, == outside quotes.
  bool in_quote = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\'') in_quote = !in_quote;
    if (in_quote) continue;
    std::string_view op_text;
    if (c == '<' || c == '>' || c == '!' || c == '=') {
      if (i + 1 < text.size() && (text[i + 1] == '=' || (c == '<' && text[i + 1] == '>'))) {
        op_text = text.substr(i, 2);
      } else {
        op_text = text.substr(i, 1);
      }
      const auto op = parse_rel_op(op_text);
      if (!op.has_value()) throw CodecError("bad operator in predicate: " + std::string(text));
      const auto attr = trim(text.substr(0, i));
      const auto rest = trim(text.substr(i + op_text.size()));
      if (attr.empty()) throw CodecError("missing attribute in predicate: " + std::string(text));
      if (rest.empty()) throw CodecError("missing operand in predicate: " + std::string(text));
      return {attr, *op, rest};
    }
  }
  throw CodecError("no relational operator in predicate: " + std::string(text));
}

/// Seconds of a duration option. Non-finite values, and values whose
/// microsecond count does not fit std::int64_t (Duration's representation),
/// are rejected; negative values keep their meaning (use the default).
double parse_seconds(std::string_view text, std::string_view what) {
  double d = 0;
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), d);
  if (ec != std::errc{} || p != text.data() + text.size()) {
    throw CodecError("bad " + std::string(what) + " value: " + std::string(text));
  }
  const double us = d * 1e6;  // exactly what Duration::seconds converts
  if (!(us >= -0x1p63 && us < 0x1p63)) {
    throw CodecError(std::string(what) + " value out of range: " + std::string(text));
  }
  return d;
}

}  // namespace

std::string serialize(const Publication& pub) {
  std::string out;
  for (std::size_t i = 0; i < pub.attributes().size(); ++i) {
    if (i != 0) out += "; ";
    out += pub.attributes()[i].first;
    out += " = ";
    out += pub.attributes()[i].second.to_string();
  }
  return out;
}

Publication parse_publication(std::string_view text) {
  Publication pub;
  if (trim(text).empty()) return pub;
  for (const auto field : split_quoted(text, ';')) {
    const auto trimmed = trim(field);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      throw CodecError("publication attribute must be name = value: " + std::string(trimmed));
    }
    const auto name = trim(trimmed.substr(0, eq));
    const auto value_text = trim(trimmed.substr(eq + 1));
    if (name.empty()) throw CodecError("empty attribute name in: " + std::string(trimmed));
    pub.set(name, Value::parse(value_text));
  }
  return pub;
}

std::string serialize(const Predicate& pred) { return pred.to_string(); }

Predicate parse_predicate(std::string_view text) {
  const auto [attr, op, operand] = split_predicate(trim(text));
  if (const auto literal = parse_literal(operand)) {
    return Predicate{std::string(attr), op, *literal};
  }
  try {
    return Predicate{std::string(attr), op, parse_expr(operand)};
  } catch (const ParseError& e) {
    // Rebase the expression-relative offset onto this predicate's text
    // (operand is a view into it), keeping the offending token, so callers
    // can point a caret at the exact source column.
    const auto base = static_cast<std::size_t>(operand.data() - text.data());
    throw CodecError("bad predicate operand '" + std::string(operand) + "': " + e.what(),
                     base + e.offset(), e.token());
  }
}

std::string serialize(const Subscription& sub) {
  std::string out;
  const Subscription defaults;
  if (sub.mei() != defaults.mei()) {
    out += "[mei=" + std::to_string(sub.mei().count_seconds()) + "]";
  }
  if (sub.tt() != defaults.tt()) {
    out += "[tt=" + std::to_string(sub.tt().count_seconds()) + "]";
  }
  if (sub.validity() != defaults.validity()) {
    out += "[validity=" + std::to_string(sub.validity().count_seconds()) + "]";
  }
  if (!out.empty()) out += " ";
  for (std::size_t i = 0; i < sub.predicates().size(); ++i) {
    if (i != 0) out += "; ";
    out += sub.predicates()[i].to_string();
  }
  return out;
}

Subscription parse_subscription(std::string_view text) {
  Subscription sub;
  auto rest = trim(text);
  while (!rest.empty() && rest.front() == '[') {
    const auto close = rest.find(']');
    if (close == std::string_view::npos) throw CodecError("unterminated option bracket");
    const auto body = rest.substr(1, close - 1);
    const auto eq = body.find('=');
    if (eq == std::string_view::npos) {
      throw CodecError("option must be key=value: " + std::string(body));
    }
    const auto key = trim(body.substr(0, eq));
    const auto value = trim(body.substr(eq + 1));
    if (key == "mei") {
      sub.set_mei(Duration::seconds(parse_seconds(value, key)));
    } else if (key == "tt") {
      sub.set_tt(Duration::seconds(parse_seconds(value, key)));
    } else if (key == "validity") {
      sub.set_validity(Duration::seconds(parse_seconds(value, key)));
    } else {
      throw CodecError("unknown subscription option: " + std::string(key));
    }
    rest = trim(rest.substr(close + 1));
  }
  if (rest.empty()) throw CodecError("subscription has no predicates");
  for (const auto field : split_quoted(rest, ';')) {
    const auto trimmed = trim(field);
    if (trimmed.empty()) continue;
    try {
      sub.add(parse_predicate(trimmed));
    } catch (const CodecError& e) {
      if (!e.has_location()) throw;
      // Rebase from predicate-relative to subscription-relative offset.
      const auto base = static_cast<std::size_t>(trimmed.data() - text.data());
      throw CodecError(e.what(), base + e.offset(), e.token());
    }
  }
  if (sub.predicates().empty()) throw CodecError("subscription has no predicates");
  return sub;
}

// --- publication batches ---------------------------------------------------

namespace {

constexpr std::string_view kBatchHeader = "pubs n=";
constexpr std::size_t kLenDigits = 8;  // fixed-width lowercase hex

/// Append `pub`'s text form (attributes only) directly into `out`; same
/// format as serialize(const Publication&) but without the temporary string.
void append_publication(const Publication& pub, std::string& out) {
  for (std::size_t i = 0; i < pub.attributes().size(); ++i) {
    if (i != 0) out += "; ";
    out += pub.attributes()[i].first;
    out += " = ";
    out += pub.attributes()[i].second.to_string();
  }
}

void append_u64(std::uint64_t v, std::string& out) {
  char buf[20];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

void append_i64(std::int64_t v, std::string& out) {
  char buf[21];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

/// Serialise one record into `arena`: the 8-hex length prefix is reserved
/// first and patched once the payload length is known — single pass, no
/// temporary buffer.
void append_record(const Publication& pub, std::string& arena) {
  const std::size_t len_pos = arena.size();
  arena.append(kLenDigits, '0');
  arena += " id=";
  append_u64(pub.id().value(), arena);
  arena += " pub=";
  append_u64(pub.publisher().value(), arena);
  arena += " t=";
  append_i64(pub.entry_time().micros(), arena);
  arena += '\n';
  const std::size_t payload_pos = arena.size();
  append_publication(pub, arena);
  const std::size_t payload_len = arena.size() - payload_pos;
  arena += '\n';
  if (payload_len >= kMaxBatchRecordBytes) {
    throw CodecError("publication payload exceeds batch record limit");
  }
  // Patch the reserved prefix in place (lowercase hex, fixed width).
  std::size_t v = payload_len;
  for (std::size_t i = 0; i < kLenDigits; ++i) {
    arena[len_pos + kLenDigits - 1 - i] = "0123456789abcdef"[v & 0xF];
    v >>= 4;
  }
}

void append_batch_header(std::size_t count, std::string& arena) {
  arena += kBatchHeader;
  append_u64(count, arena);
  arena += '\n';
}

[[noreturn]] void batch_fail(const std::string& message, std::size_t offset,
                             std::string_view token = {}) {
  throw CodecError(message, offset, std::string(token));
}

/// Parse an unsigned decimal field `key=<digits>` at `pos` within `text`,
/// advancing `pos` past it. Errors carry the offset of the field start.
std::uint64_t parse_field_u64(std::string_view text, std::size_t& pos, std::string_view key) {
  const std::size_t field_start = pos;
  if (text.substr(pos, key.size()) != key) {
    batch_fail("batch record: expected '" + std::string(key) + "'", field_start,
               text.substr(pos, key.size()));
  }
  pos += key.size();
  std::uint64_t v = 0;
  auto [p, ec] = std::from_chars(text.data() + pos, text.data() + text.size(), v);
  if (ec != std::errc{} || p == text.data() + pos) {
    batch_fail("batch record: bad integer after '" + std::string(key) + "'", field_start);
  }
  pos = static_cast<std::size_t>(p - text.data());
  return v;
}

std::int64_t parse_field_i64(std::string_view text, std::size_t& pos, std::string_view key) {
  const std::size_t field_start = pos;
  if (text.substr(pos, key.size()) != key) {
    batch_fail("batch record: expected '" + std::string(key) + "'", field_start,
               text.substr(pos, key.size()));
  }
  pos += key.size();
  std::int64_t v = 0;
  auto [p, ec] = std::from_chars(text.data() + pos, text.data() + text.size(), v);
  if (ec != std::errc{} || p == text.data() + pos) {
    batch_fail("batch record: bad integer after '" + std::string(key) + "'", field_start);
  }
  pos = static_cast<std::size_t>(p - text.data());
  return v;
}

}  // namespace

void serialize_batch(std::span<const Publication* const> pubs, std::string& arena) {
  arena.clear();
  if (pubs.size() > kMaxBatchPublications) {
    throw CodecError("batch exceeds kMaxBatchPublications");
  }
  append_batch_header(pubs.size(), arena);
  for (const Publication* pub : pubs) append_record(*pub, arena);
}

void serialize_batch(std::span<const PublicationPtr> pubs, std::string& arena) {
  arena.clear();
  if (pubs.size() > kMaxBatchPublications) {
    throw CodecError("batch exceeds kMaxBatchPublications");
  }
  append_batch_header(pubs.size(), arena);
  for (const auto& pub : pubs) append_record(*pub, arena);
}

std::string serialize_batch(std::span<const Publication> pubs) {
  std::string arena;
  if (pubs.size() > kMaxBatchPublications) {
    throw CodecError("batch exceeds kMaxBatchPublications");
  }
  append_batch_header(pubs.size(), arena);
  for (const auto& pub : pubs) append_record(pub, arena);
  return arena;
}

std::size_t serialized_batch_size(std::span<const PublicationPtr> pubs) {
  // Reuse a thread-local arena so accounting is allocation-free at steady
  // state; exact by construction (delegates to the real serialiser).
  thread_local std::string arena;
  serialize_batch(pubs, arena);
  return arena.size();
}

std::vector<Publication> parse_publication_batch(std::string_view text) {
  std::size_t pos = 0;
  if (text.substr(0, kBatchHeader.size()) != kBatchHeader) {
    batch_fail("batch: missing 'pubs n=' header", 0, text.substr(0, kBatchHeader.size()));
  }
  pos = kBatchHeader.size();
  std::uint64_t count = 0;
  {
    auto [p, ec] = std::from_chars(text.data() + pos, text.data() + text.size(), count);
    if (ec != std::errc{} || p == text.data() + pos) {
      batch_fail("batch: bad publication count", pos);
    }
    pos = static_cast<std::size_t>(p - text.data());
  }
  if (count > kMaxBatchPublications) batch_fail("batch: count exceeds limit", kBatchHeader.size());
  if (pos >= text.size() || text[pos] != '\n') batch_fail("batch: truncated header", pos);
  ++pos;

  std::vector<Publication> pubs;
  pubs.reserve(count);
  std::unordered_set<std::uint64_t> seen_ids;
  seen_ids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t record_start = pos;
    if (text.size() - pos < kLenDigits + 1) batch_fail("batch: truncated record header", pos);
    std::size_t payload_len = 0;
    for (std::size_t d = 0; d < kLenDigits; ++d) {
      const char c = text[pos + d];
      std::size_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::size_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::size_t>(c - 'a') + 10;
      } else {
        batch_fail("batch record: bad hex length digit", pos + d, text.substr(pos + d, 1));
      }
      payload_len = (payload_len << 4) | digit;
    }
    if (payload_len >= kMaxBatchRecordBytes) {
      batch_fail("batch record: payload length exceeds limit", record_start);
    }
    pos += kLenDigits;
    const auto id = parse_field_u64(text, pos, " id=");
    const auto publisher = parse_field_u64(text, pos, " pub=");
    const auto entry_us = parse_field_i64(text, pos, " t=");
    if (pos >= text.size() || text[pos] != '\n') {
      batch_fail("batch record: truncated metadata line", pos);
    }
    ++pos;
    if (text.size() - pos < payload_len + 1) {
      batch_fail("batch record: payload overruns frame", record_start);
    }
    const auto payload = text.substr(pos, payload_len);
    pos += payload_len;
    if (text[pos] != '\n') batch_fail("batch record: payload length mismatch", pos);
    ++pos;
    // Reject duplicate valid ids — a frame carrying the same publication
    // twice is corrupt, not a bigger batch. Invalid (unset) ids may repeat:
    // ad-hoc publications are serialised before any id is assigned.
    if (id != MessageId::kInvalid && !seen_ids.insert(id).second) {
      batch_fail("batch record: duplicate publication id", record_start);
    }
    Publication pub;
    try {
      pub = parse_publication(payload);
    } catch (const CodecError& e) {
      const std::size_t base = static_cast<std::size_t>(payload.data() - text.data());
      batch_fail(std::string("batch record payload: ") + e.what(),
                 base + (e.has_location() ? e.offset() : 0), e.token());
    }
    pub.set_id(MessageId{id});
    pub.set_publisher(ClientId{publisher});
    pub.set_entry_time(SimTime::from_micros(entry_us));
    pubs.push_back(std::move(pub));
  }
  if (pos != text.size()) batch_fail("batch: trailing bytes after last record", pos);
  return pubs;
}

}  // namespace evps
