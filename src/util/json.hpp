/// \file
/// Minimal JSON value model with a deterministic writer and a strict
/// recursive-descent parser.
///
/// Built for the perf harness (src/perf): `BENCH_*.json` trajectory files
/// must be byte-stable across runs, so the writer preserves object key
/// insertion order, renders numbers through one canonical format
/// (shortest round-trip via `%.17g` trimmed), and never emits locale- or
/// pointer-dependent bytes. The parser is the harness's own round-trip
/// check — it accepts exactly the JSON the writer emits plus ordinary
/// RFC-8259 documents (no comments, no trailing commas).
///
/// The same parser also runs as a member reader (json_scan_members): it
/// checks a whole document's syntax and locates a few top-level members
/// without building a tree, which is how the serving layer reads request
/// lines (serve/wire.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace msrs {

/// A JSON document node: null, bool, number, string, array or object.
/// Objects keep their keys in insertion order (deterministic writer output).
class Json {
 public:
  /// Node kind; queried via the is_*() predicates.
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Constructs null.
  Json() = default;
  /// Constructs a boolean.
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  /// Constructs a number.
  Json(double v) : type_(Type::kNumber), number_(v) {}
  /// Constructs a number from an integer (stored exactly up to 2^53).
  Json(std::int64_t v) : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  /// Constructs a string.
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  /// Constructs a string from a literal.
  Json(const char* s) : type_(Type::kString), string_(s) {}

  /// An empty array node.
  static Json array();
  /// An empty object node.
  static Json object();
  /// An object node with these members in order. A repeated key keeps its
  /// first position and takes its last value, as a sequence of set() calls
  /// would leave it, but in O(k log k) for k members rather than O(k^2).
  static Json object(std::vector<std::pair<std::string, Json>> members);

  /// \name Type predicates
  /// @{
  Type type() const { return type_; }          ///< node kind
  bool is_null() const { return type_ == Type::kNull; }      ///< null?
  bool is_bool() const { return type_ == Type::kBool; }      ///< boolean?
  bool is_number() const { return type_ == Type::kNumber; }  ///< number?
  bool is_string() const { return type_ == Type::kString; }  ///< string?
  bool is_array() const { return type_ == Type::kArray; }    ///< array?
  bool is_object() const { return type_ == Type::kObject; }  ///< object?
  /// @}

  /// Boolean payload (valid iff is_bool()).
  bool as_bool() const { return bool_; }
  /// Numeric payload (valid iff is_number()).
  double as_number() const { return number_; }
  /// String payload (valid iff is_string()).
  const std::string& as_string() const { return string_; }
  /// Array elements (valid iff is_array()).
  const std::vector<Json>& items() const { return items_; }
  /// Object members in insertion order (valid iff is_object()).
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Appends an element (array nodes only).
  void push_back(Json value);
  /// Appends or overwrites a member, preserving first-insertion order.
  void set(std::string key, Json value);
  /// Pointer to the member value, or nullptr when absent / not an object.
  const Json* find(const std::string& key) const;

  /// Serializes deterministically; `indent` > 0 pretty-prints.
  std::string str(int indent = 0) const;

  /// Structural equality (object key order ignored; numbers compared
  /// exactly).
  friend bool operator==(const Json& a, const Json& b);

 private:
  void write(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Parses a JSON document. Returns std::nullopt on malformed input and, when
/// `error` is non-null, stores a one-line description with byte offset.
std::optional<Json> json_parse(std::string_view text,
                               std::string* error = nullptr);

/// What json_scan_members() found in its text.
enum class JsonScan {
  kObject,     ///< one well-formed object; its wanted members are located
  kNotObject,  ///< one well-formed document that is not an object
  kMalformed,  ///< not one JSON document; `*error` says why
};

/// One top-level member as json_scan_members() located it.
struct JsonMember {
  bool found = false;                   ///< the key occurs in the object
  Json::Type type = Json::Type::kNull;  ///< the value's kind (when found)
  std::string_view bytes;               ///< the value's bytes in the text
};

/// Reads a document's top-level members without building a tree. Checks
/// the syntax of all of `text` with json_parse()'s rules, so a malformed
/// document fails with the same `*error` detail. When the document is an
/// object, `found[i]` locates the value of the member named `keys[i]`; a
/// repeated key locates its last value, as in the tree. Allocates nothing
/// unless a key is escaped and longer than the short-string buffer.
JsonScan json_scan_members(std::string_view text,
                           std::span<const std::string_view> keys,
                           std::span<JsonMember> found,
                           std::string* error = nullptr);

/// The decoded value of a located kString member, written to `*out`.
void json_member_string(const JsonMember& member, std::string* out);

/// The value of a located kNumber member.
double json_member_number(const JsonMember& member);

}  // namespace msrs
