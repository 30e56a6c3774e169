// Minimal JSON utilities shared by the observability sinks, the run-report
// and benchmark-artifact writers, and their tests: string escaping, safe
// number formatting, and a small DOM parser (`parse_json`, which
// `json_valid` also runs) for tools that must read artifacts back —
// gansec_benchdiff compares two BENCH_*.json files without any external
// dependency.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gansec::obs {

/// Escapes for inclusion inside a JSON string literal (quotes, backslash,
/// control characters as \uXXXX). Does not add surrounding quotes.
std::string json_escape(std::string_view text);

/// Renders a double as a JSON token: shortest round-trip decimal for
/// finite values, `null` for NaN/inf (JSON has no non-finite numbers).
std::string json_number(double value);

/// Strict RFC 8259 syntax check of one complete JSON value: parse_json()
/// with its ParseError caught. On failure returns false and, when `error`
/// is non-null, stores the parser's reason with the byte offset.
bool json_valid(std::string_view text, std::string* error = nullptr);

/// Parsed JSON value. Objects keep member insertion order (artifact diffs
/// stay stable); lookups are linear, which is fine at artifact scale.
/// \u escapes decode to UTF-8 (surrogate pairs included).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; each throws InvalidArgumentError on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<Member>& as_object() const;

  /// Object member by key, or nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Nested lookup: find("a")->find("b") without null checks at each hop.
  const JsonValue* find_path(std::initializer_list<std::string_view> keys)
      const;

  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::vector<Member> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;
};

/// Parses one complete RFC 8259 value; throws ParseError (with a byte
/// offset) on any syntax error or trailing garbage.
JsonValue parse_json(std::string_view text);

/// Reads and parses a whole file; throws IoError / ParseError.
JsonValue parse_json_file(const std::string& path);

}  // namespace gansec::obs
