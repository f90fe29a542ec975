// A minimal, self-contained JSON value with a strict parser and a
// deterministic writer — the wire format of the chase daemon (service/).
//
// Deliberately tiny: the daemon's payloads are small, hand-shaped objects
// (job submissions, status, options), so this is a plain recursive-descent
// parser over std::string_view and a tree of tagged values, with object
// members kept in insertion order so serialized payloads are stable and
// diffable. No external dependency, no streaming, no SAX.
//
// Numbers are stored as double. Every count the service exchanges (steps,
// rounds, sizes) is far below 2^53, so round-tripping through double is
// exact; the writer prints integral doubles without a fraction.
//
// A value holds only its own kind (one variant, 40 bytes), and parsed
// containers and strings are trimmed to their size: daemons retain
// terminal results and clients keep fetched ones, so the per-node
// footprint is what a busy service's memory grows by.
//
// Parsing untrusted bytes never aborts: malformed input, depth bombs and
// truncated documents come back as Status (the HTTP layer maps them to 400).
#ifndef TWCHASE_SERVICE_JSON_H_
#define TWCHASE_SERVICE_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/status.h"

namespace twchase {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  static Json Null() { return Json(); }
  static Json Bool(bool value);
  static Json Number(double value);
  static Json Number(uint64_t value) {
    return Number(static_cast<double>(value));
  }
  static Json String(std::string value);
  static Json Array();
  static Json Object();

  /// Strict parse of one JSON document (trailing non-space input is an
  /// error). InvalidArgument with an offset-annotated message on malformed
  /// input; nesting deeper than 64 levels is rejected.
  static StatusOr<Json> Parse(std::string_view text);

  using Items = std::vector<Json>;
  using Members = std::vector<std::pair<std::string, Json>>;

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed access; a value of another kind reads as false, 0 or empty.
  bool bool_value() const;
  double number_value() const;
  const std::string& string_value() const;

  /// Array access.
  const Items& items() const;
  void Append(Json value);

  /// Object access, insertion-ordered. Get returns null for a missing key
  /// (distinguish with Has when null is a legal value).
  const Members& members() const;
  bool Has(std::string_view key) const;
  const Json& Get(std::string_view key) const;
  /// Insert-or-overwrite, preserving first-insertion order.
  void Set(std::string_view key, Json value);

  /// Serialises the value. indent < 0 renders compact (one line); indent
  /// >= 0 pretty-prints with that base indentation, two spaces per level.
  std::string Dump(int indent = -1) const;

 private:
  friend struct JsonParser;

  void DumpTo(std::string* out, int indent, int depth) const;

  // Alternatives in Type order: index() is the type.
  std::variant<std::monostate, bool, double, std::string, Items, Members>
      value_;
};

/// Escapes `text` as the body of a JSON string literal (no quotes added).
std::string JsonEscape(std::string_view text);

}  // namespace twchase

#endif  // TWCHASE_SERVICE_JSON_H_
