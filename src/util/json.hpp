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
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
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
  /// Moves the string payload out (valid iff is_string(); leaves it
  /// empty), so a parsed document hands over large strings without a copy.
  std::string take_string() { return std::move(string_); }
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
  /// Mutable variant of find().
  Json* find(const std::string& key);

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
std::optional<Json> json_parse(const std::string& text,
                               std::string* error = nullptr);

}  // namespace msrs
