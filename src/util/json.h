// Minimal generic JSON tree: parse, build, serialize -- the repo's one JSON
// codec. The telemetry pipeline uses it with nesting: metrics snapshots
// (src/util/metrics_export.h) read and write this tree, and the bench reports
// (bench/bench_util.h) are built on it. The serve wire protocol
// (src/serve/protocol.h) uses it too, adding only two rules of its own:
// requests must be flat objects, and responses sort their keys.
//
// Properties the consumers rely on:
//   * Deterministic serialization: objects keep insertion order (builders
//     insert sorted keys where determinism matters), whole numbers below 1e15
//     render as plain integers and other numbers via std::to_chars shortest
//     round-trip form, so parse(serialize(x)) == x and golden tests can
//     string-compare output. Control bytes in strings are escaped, so every
//     serialized line is valid JSON.
//   * No aborts on malformed input: Parse returns false with a message and
//     byte offset; operator-supplied files are rejected, never crashed on.
//   * Strict numbers: -?int[.frac][(e|E)[+-]digits] only -- no hex, no
//     leading '+' or '.', no inf/nan, nothing outside a double's range.
//   * Small surface: object/array/string/number/bool/null only -- no
//     comments, no trailing commas, \uXXXX escapes limited to ASCII.

#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace crius {

class Json {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;

  // --- Builders --------------------------------------------------------------
  static Json Null();
  static Json Bool(bool v);
  static Json Number(double v);
  static Json Str(std::string v);
  static Json Array();
  static Json Object();

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_null() const { return kind_ == Kind::kNull; }

  // --- Object access (no-op / empty defaults on kind mismatch) ---------------
  // Adds or replaces `key`; keeps first-insertion position on replace.
  Json& Set(const std::string& key, Json value);
  const Json* Find(const std::string& key) const;
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key, const std::string& fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;
  const std::vector<std::pair<std::string, Json>>& fields() const { return fields_; }

  // --- Array access ----------------------------------------------------------
  void Push(Json value);
  const std::vector<Json>& items() const { return items_; }

  // --- Leaf values -----------------------------------------------------------
  double number() const { return num_; }
  bool boolean() const { return b_; }
  const std::string& str() const { return str_; }

  // Compact single-line serialization ("indent < 0"), or pretty-printed with
  // `indent` spaces per level. Deterministic given the tree.
  std::string Serialize(int indent = -1) const;

  // Parses one complete JSON value (trailing garbage is an error). Returns
  // false with a message + offset in *error on malformed input.
  static bool Parse(const std::string& text, Json* out, std::string* error);

  // JSON string escaping of `s` (quotes included), shared with exporters.
  static std::string EscapeString(const std::string& s);

 private:
  void SerializeTo(std::string* out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool b_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> fields_;
};

// Plain integer for whole |v| < 1e15 ("0" for -0), otherwise the shortest
// round-trip decimal rendering (std::to_chars); "0" for Inf/NaN.
std::string FormatJsonNumber(double v);

}  // namespace crius

#endif  // SRC_UTIL_JSON_H_
