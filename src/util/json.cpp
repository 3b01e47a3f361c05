#include "util/json.hpp"

#include <charconv>
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
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

Json* Json::find(const std::string& key) {
  return const_cast<Json*>(std::as_const(*this).find(key));
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

// Strict RFC-8259 recursive-descent parser.
class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Json> run() {
    auto value = parse_value();
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing bytes after document");
      return std::nullopt;
    }
    return value;
  }

 private:
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
  // quote or backslash, or the end of the text.
  std::size_t plain_run_end(std::size_t from) const {
    while (from < text_.size() && text_[from] != '"' && text_[from] != '\\')
      ++from;
    return std::min(from, text_.size());
  }

  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    // Depth cap: the parser recurses once per container level, and inputs
    // arrive from untrusted sources (the serving layer's wire protocol) —
    // without a bound, a line of 100k '['s overflows the stack and kills
    // the process. 128 levels is far beyond any document this repo emits.
    if (depth_ >= 128) {
      fail("nesting deeper than 128 levels");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') return nested([this] { return parse_object(); });
    if (c == '[') return nested([this] { return parse_array(); });
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (literal("null")) return Json();
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    return parse_number();
  }

  std::optional<Json> parse_number() {
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
      return std::nullopt;
    }
    double v = 0.0;
    if (!parse_double(text_.data() + begin, text_.data() + pos_, &v)) {
      fail("malformed number '" + text_.substr(begin, pos_ - begin) + "'");
      return std::nullopt;
    }
    return Json(v);
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected '\"'");
      return std::nullopt;
    }
    std::string out;
    // Plain runs go in as one append each. When escapes follow, size the
    // buffer once from the raw span up to the closing quote (decoding
    // never lengthens a string).
    std::size_t stop = plain_run_end(pos_);
    if (stop < text_.size() && text_[stop] == '\\') {
      std::size_t close = stop;
      while (close < text_.size() && text_[close] == '\\')
        close = plain_run_end(close + 2);
      out.reserve(close - pos_);
    }
    while (pos_ < text_.size()) {
      out.append(text_, pos_, stop - pos_);
      pos_ = stop;
      if (pos_ == text_.size()) break;
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            // Exactly four hex digits, checked by hand: sscanf-style
            // parsing would skip whitespace and accept short tokens,
            // silently corrupting the string.
            unsigned code = 0;
            bool hex_ok = true;
            for (std::size_t k = 0; k < 4; ++k) {
              const char h = text_[pos_ + k];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else hex_ok = false;
            }
            if (!hex_ok) {
              fail("malformed \\u escape");
              return std::nullopt;
            }
            pos_ += 4;
            // The writer only emits \u00xx for control bytes; decode the
            // BMP code point as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail(std::string("unknown escape '\\") + esc + "'");
            return std::nullopt;
        }
      }
      stop = plain_run_end(pos_);
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> parse_array() {
    consume('[');
    Json out = Json::array();
    skip_ws();
    if (consume(']')) return out;
    for (;;) {
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.push_back(std::move(*value));
      if (consume(',')) continue;
      if (consume(']')) return out;
      fail("expected ',' or ']'");
      return std::nullopt;
    }
  }

  std::optional<Json> parse_object() {
    consume('{');
    Json out = Json::object();
    skip_ws();
    if (consume('}')) return out;
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':'");
        return std::nullopt;
      }
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.set(std::move(*key), std::move(*value));
      if (consume(',')) continue;
      if (consume('}')) return out;
      fail("expected ',' or '}'");
      return std::nullopt;
    }
  }

  // Runs a container parse one level deeper (RAII would be overkill: the
  // parsers return through this frame on every path).
  template <typename F>
  std::optional<Json> nested(F&& parse) {
    ++depth_;
    std::optional<Json> value = parse();
    --depth_;
    return value;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Json> json_parse(const std::string& text, std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).run();
}

}  // namespace msrs
