#include "util/json.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <utility>

namespace msrs {
namespace {

// Locale-free double parsing (std::from_chars; never honors LC_NUMERIC).
// Requires the whole token to be consumed.
bool parse_double(const char* first, const char* last, double* out) {
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

// Canonical number format: shortest precision of 15..17 significant digits
// that round-trips, so equal doubles always serialize to equal bytes and
// integers stay free of exponent noise up to 2^53. std::to_chars is
// locale-independent, keeping the byte-stability contract even when a host
// program calls setlocale().
std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  char buf[32];
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    const auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                      std::chars_format::general, precision);
    end = result.ptr;
    double back = 0.0;
    if (parse_double(buf, end, &back) && back == v) break;
  }
  return std::string(buf, end);
}

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (!needs_escape(c)) continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

}  // namespace

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::object(std::vector<std::pair<std::string, Json>> members) {
  // Group equal keys by sorting member indices (index order within a
  // group): the group's first index keeps its slot and takes the value of
  // the group's last index; the others are dropped. The indices live in
  // per-thread scratch, so building an object allocates no more than the
  // set() calls it replaces.
  const std::size_t n = members.size();
  thread_local std::vector<std::size_t> order;
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int cmp = members[a].first.compare(members[b].first);
    return cmp != 0 ? cmp < 0 : a < b;
  });
  std::vector<bool> dropped;  // sized at the first repeated key
  for (std::size_t g = 0; g < n;) {
    std::size_t end = g + 1;
    while (end < n && members[order[end]].first == members[order[g]].first)
      ++end;
    if (end - g > 1) {
      if (dropped.empty()) dropped.assign(n, false);
      members[order[g]].second = std::move(members[order[end - 1]].second);
      for (std::size_t k = g + 1; k < end; ++k) dropped[order[k]] = true;
    }
    g = end;
  }
  if (!dropped.empty()) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (dropped[i]) continue;
      if (kept != i) members[kept] = std::move(members[i]);
      ++kept;
    }
    members.resize(kept);
  }
  Json j = object();
  j.members_ = std::move(members);
  return j;
}

void Json::push_back(Json value) {
  type_ = Type::kArray;
  items_.push_back(std::move(value));
}

void Json::set(std::string key, Json value) {
  type_ = Type::kObject;
  for (auto& [k, v] : members_)
    if (k == key) {
      v = std::move(value);
      return;
    }
  members_.emplace_back(std::move(key), std::move(value));
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

void Json::write(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent * (depth + 1)), ' ');
  const std::string close_pad(static_cast<std::size_t>(indent * depth), ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: out += format_number(number_); break;
    case Type::kString: write_escaped(out, string_); break;
    case Type::kArray:
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        out += nl;
        out += pad;
        items_[i].write(out, indent, depth + 1);
      }
      out += nl;
      out += close_pad;
      out += ']';
      break;
    case Type::kObject:
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        out += nl;
        out += pad;
        write_escaped(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.write(out, indent, depth + 1);
      }
      out += nl;
      out += close_pad;
      out += '}';
      break;
  }
}

std::string Json::str(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull: return true;
    case Json::Type::kBool: return a.bool_ == b.bool_;
    case Json::Type::kNumber: return a.number_ == b.number_;
    case Json::Type::kString: return a.string_ == b.string_;
    case Json::Type::kArray: return a.items_ == b.items_;
    case Json::Type::kObject: {
      if (a.members_.size() != b.members_.size()) return false;
      for (const auto& [k, v] : a.members_) {
        const Json* other = b.find(k);
        if (other == nullptr || !(v == *other)) return false;
      }
      return true;
    }
  }
  return false;
}

namespace {

// Strict RFC-8259 recursive-descent parser. Each value parser checks the
// syntax and, when its `out` is non-null, also builds the value; with
// nullptr it only checks. The member reader runs the checking mode over a
// top-level object and notes where the wanted members' values sit.
class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  // The whole text as one value, built into *out (nullptr: check only).
  bool document(Json* out) {
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing bytes after document");
      return false;
    }
    return true;
  }

  // The member reader behind json_scan_members().
  JsonScan members(std::span<const std::string_view> keys,
                   std::span<JsonMember> found) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '{')
      return document(nullptr) ? JsonScan::kNotObject : JsonScan::kMalformed;
    Wanted wanted{keys, found, {}};
    // The same depth bookkeeping as value() entering a top-level object.
    ++depth_;
    const bool ok = object(nullptr, &wanted);
    --depth_;
    if (!ok) return JsonScan::kMalformed;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing bytes after document");
      return JsonScan::kMalformed;
    }
    return JsonScan::kObject;
  }

  // A string token starting at the current position (leading whitespace
  // allowed): checked, then decoded into *out when non-null.
  bool string(std::string* out) {
    skip_ws();
    const std::size_t begin = pos_;
    if (!consume('"')) {
      fail("expected '\"'");
      return false;
    }
    std::size_t stop = plain_run_end(pos_);
    while (stop < text_.size()) {
      pos_ = stop + 1;
      if (text_[stop] == '"') {
        if (out != nullptr)
          decode_string(text_.substr(begin, pos_ - begin), out);
        return true;
      }
      if (pos_ >= text_.size()) break;  // a backslash ends the text
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': case '\\': case '/': case 'n': case 't': case 'r':
        case 'b': case 'f':
          break;
        case 'u':
          if (!hex4(nullptr)) return false;
          break;
        default:
          fail(std::string("unknown escape '\\") + esc + "'");
          return false;
      }
      stop = plain_run_end(pos_);
    }
    pos_ = text_.size();
    fail("unterminated string");
    return false;
  }

  // Decodes a string token, quotes included, that string() has checked,
  // in one pass through a buffer sized once from the token (decoding never
  // lengthens a string). Only backslashes can interrupt a plain run here.
  static void decode_string(std::string_view token, std::string* out) {
    out->resize(token.size() - 2);
    char* dst = out->data();
    const char* p = token.data() + 1;
    const char* const end = token.data() + token.size() - 1;
    while (p != end) {
      const void* slash =
          std::memchr(p, '\\', static_cast<std::size_t>(end - p));
      const char* stop =
          slash != nullptr ? static_cast<const char*>(slash) : end;
      std::memcpy(dst, p, static_cast<std::size_t>(stop - p));
      dst += stop - p;
      if (stop == end) break;
      const char esc = stop[1];
      p = stop + 2;
      switch (esc) {
        case 'n': *dst++ = '\n'; break;
        case 't': *dst++ = '\t'; break;
        case 'r': *dst++ = '\r'; break;
        case 'b': *dst++ = '\b'; break;
        case 'f': *dst++ = '\f'; break;
        case 'u': {
          unsigned code = 0;
          Parser(std::string_view(p, 4), nullptr).hex4(&code);
          p += 4;
          dst = put_utf8(code, dst);
          break;
        }
        default: *dst++ = esc; break;  // '"', '\\' and '/' stand for themselves
      }
    }
    out->resize(static_cast<std::size_t>(dst - out->data()));
  }

 private:
  // The member reader's state: the wanted keys, where their values were
  // found, and a buffer for unescaping a key.
  struct Wanted {
    std::span<const std::string_view> keys;
    std::span<JsonMember> found;
    std::string key;
  };

  void fail(const std::string& what) {
    if (error_ != nullptr && error_->empty())
      *error_ = what + " at byte " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // End of the run of plain string bytes starting at `from`: the next
  // quote or backslash, or the end of the text. Eight bytes per step: a
  // byte of `word` equals c exactly when the same byte of word ^ (c * 0x01..)
  // is zero, and the lowest flagged zero byte is exact (borrows only
  // propagate upward), so the lowest set bit of the mask is the answer.
  std::size_t plain_run_end(std::size_t from) const {
    const std::size_t size = text_.size();
    if constexpr (std::endian::native == std::endian::little) {
      constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
      constexpr std::uint64_t kHighs = 0x8080808080808080ULL;
      for (; from + 8 <= size; from += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, text_.data() + from, sizeof word);
        const std::uint64_t quote = word ^ (kOnes * '"');
        const std::uint64_t slash = word ^ (kOnes * '\\');
        const std::uint64_t hit = ((quote - kOnes) & ~quote) |
                                  ((slash - kOnes) & ~slash);
        if ((hit & kHighs) != 0)
          return from + static_cast<std::size_t>(
                            std::countr_zero(hit & kHighs) / 8);
      }
    }
    while (from < size && text_[from] != '"' && text_[from] != '\\') ++from;
    return from;
  }

  // Exactly four hex digits after "\u", checked by hand: sscanf-style
  // parsing would skip whitespace and accept short tokens, silently
  // corrupting the string. The value goes to *code when non-null.
  bool hex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
      return false;
    }
    unsigned value = 0;
    bool hex_ok = true;
    for (std::size_t k = 0; k < 4; ++k) {
      const char h = text_[pos_ + k];
      value <<= 4;
      if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f')
        value |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F')
        value |= static_cast<unsigned>(h - 'A' + 10);
      else hex_ok = false;
    }
    if (!hex_ok) {
      fail("malformed \\u escape");
      return false;
    }
    pos_ += 4;
    if (code != nullptr) *code = value;
    return true;
  }

  // The writer only emits \u00xx for control bytes; a BMP code point is
  // decoded as UTF-8 at `dst`. Returns the end of what it wrote.
  static char* put_utf8(unsigned code, char* dst) {
    if (code < 0x80) {
      *dst++ = static_cast<char>(code);
    } else if (code < 0x800) {
      *dst++ = static_cast<char>(0xC0 | (code >> 6));
      *dst++ = static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *dst++ = static_cast<char>(0xE0 | (code >> 12));
      *dst++ = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *dst++ = static_cast<char>(0x80 | (code & 0x3F));
    }
    return dst;
  }

  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  bool value(Json* out) {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    // Depth cap: the parser recurses once per container level, and inputs
    // arrive from untrusted sources (the serving layer's wire protocol) —
    // without a bound, a line of 100k '['s overflows the stack and kills
    // the process. 128 levels is far beyond any document this repo emits.
    if (depth_ >= 128) {
      fail("nesting deeper than 128 levels");
      return false;
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      ++depth_;
      const bool ok = c == '{' ? object(out, nullptr) : array(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      if (out == nullptr) return string(nullptr);
      std::string s;
      if (!string(&s)) return false;
      *out = Json(std::move(s));
      return true;
    }
    if (literal("null")) {
      if (out != nullptr) *out = Json();
      return true;
    }
    if (literal("true")) {
      if (out != nullptr) *out = Json(true);
      return true;
    }
    if (literal("false")) {
      if (out != nullptr) *out = Json(false);
      return true;
    }
    return number(out);
  }

  bool number(Json* out) {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t digits = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == digits) {
      fail("expected a value");
      return false;
    }
    double v = 0.0;
    if (!parse_double(text_.data() + begin, text_.data() + pos_, &v)) {
      fail("malformed number '" +
           std::string(text_.substr(begin, pos_ - begin)) + "'");
      return false;
    }
    if (out != nullptr) *out = Json(v);
    return true;
  }

  bool array(Json* out) {
    consume('[');
    if (out != nullptr) *out = Json::array();
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      Json item;
      if (!value(out != nullptr ? &item : nullptr)) return false;
      if (out != nullptr) out->push_back(std::move(item));
      if (consume(',')) continue;
      if (consume(']')) return true;
      fail("expected ',' or ']'");
      return false;
    }
  }

  // An object, built into *out (members folded by Json::object) or, with
  // `wanted`, read member by member without building anything.
  bool object(Json* out, Wanted* wanted) {
    consume('{');
    std::vector<std::pair<std::string, Json>> members;
    skip_ws();
    if (consume('}')) {
      if (out != nullptr) *out = Json::object();
      return true;
    }
    for (;;) {
      skip_ws();
      const std::size_t key_begin = pos_;
      std::string key;
      if (!string(out != nullptr ? &key : nullptr)) return false;
      const std::size_t key_end = pos_;
      if (!consume(':')) {
        fail("expected ':'");
        return false;
      }
      skip_ws();
      const std::size_t value_begin = pos_;
      Json item;
      if (!value(out != nullptr ? &item : nullptr)) return false;
      if (out != nullptr)
        members.emplace_back(std::move(key), std::move(item));
      else if (wanted != nullptr)
        note_member(*wanted, key_begin, key_end, value_begin);
      if (consume(',')) continue;
      if (consume('}')) {
        if (out != nullptr) *out = Json::object(std::move(members));
        return true;
      }
      fail("expected ',' or '}'");
      return false;
    }
  }

  // Records the member whose key token is text_[key_begin, key_end) and
  // whose value spans text_[value_begin, pos_) when its key is wanted.
  void note_member(Wanted& wanted, std::size_t key_begin, std::size_t key_end,
                   std::size_t value_begin) {
    std::string_view key = text_.substr(key_begin + 1, key_end - key_begin - 2);
    if (key.find('\\') != std::string_view::npos) {
      decode_string(text_.substr(key_begin, key_end - key_begin), &wanted.key);
      key = wanted.key;
    }
    for (std::size_t i = 0; i < wanted.keys.size(); ++i) {
      if (wanted.keys[i] != key) continue;
      JsonMember& member = wanted.found[i];
      member.found = true;
      member.bytes = text_.substr(value_begin, pos_ - value_begin);
      switch (text_[value_begin]) {
        case '{': member.type = Json::Type::kObject; break;
        case '[': member.type = Json::Type::kArray; break;
        case '"': member.type = Json::Type::kString; break;
        case 'n': member.type = Json::Type::kNull; break;
        case 't':
        case 'f': member.type = Json::Type::kBool; break;
        default: member.type = Json::Type::kNumber; break;
      }
      return;
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Json> json_parse(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  Json out;
  if (!Parser(text, error).document(&out)) return std::nullopt;
  return out;
}

JsonScan json_scan_members(std::string_view text,
                           std::span<const std::string_view> keys,
                           std::span<JsonMember> found, std::string* error) {
  if (error != nullptr) error->clear();
  for (JsonMember& member : found) member = JsonMember{};
  return Parser(text, error).members(keys, found);
}

void json_member_string(const JsonMember& member, std::string* out) {
  Parser::decode_string(member.bytes, out);
}

double json_member_number(const JsonMember& member) {
  double v = 0.0;
  parse_double(member.bytes.data(), member.bytes.data() + member.bytes.size(),
               &v);
  return v;
}

}  // namespace msrs
