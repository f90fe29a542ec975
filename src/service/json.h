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
// Compact nodes: daemons retain terminal results and clients keep fetched
// ones, so the per-node footprint is what a busy service's memory grows by.
// A node is 16 bytes. A string of up to 14 bytes lives inside the node;
// a longer string, an array or an object is one heap block. Parsed
// containers and strings are allocated at their exact size; a container
// grown by Append or Set doubles its block as it fills.
//
// Parsing untrusted bytes never aborts: malformed input, depth bombs and
// truncated documents come back as Status (the HTTP layer maps them to 400).
#ifndef TWCHASE_SERVICE_JSON_H_
#define TWCHASE_SERVICE_JSON_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/status.h"

namespace twchase {

class Json {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  /// One object member: `key` is always a string value.
  struct Member;

  Json() = default;  // null
  Json(const Json& other);
  Json(Json&& other) noexcept : rep_(other.rep_) { other.rep_ = Rep(); }
  Json& operator=(const Json& other);
  Json& operator=(Json&& other) noexcept;
  ~Json() { Release(); }

  static Json Null() { return Json(); }
  static Json Bool(bool value);
  static Json Number(double value);
  static Json Number(uint64_t value) {
    return Number(static_cast<double>(value));
  }
  static Json String(std::string_view value);
  static Json Array();
  static Json Object();

  /// Strict parse of one JSON document (trailing non-space input is an
  /// error). InvalidArgument with an offset-annotated message on malformed
  /// input; nesting deeper than 64 levels is rejected.
  static StatusOr<Json> Parse(std::string_view text);

  Type type() const { return rep_.heap.type; }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed access; a value of another kind reads as false, 0 or empty.
  /// The views stay valid until the value is modified or destroyed.
  bool bool_value() const;
  double number_value() const;
  std::string_view string_value() const;

  /// Array access.
  std::span<const Json> items() const;
  void Append(Json value);

  /// Object access, insertion-ordered. Get returns null for a missing key
  /// (distinguish with Has when null is a legal value).
  std::span<const Member> members() const;
  bool Has(std::string_view key) const;
  const Json& Get(std::string_view key) const;
  /// Insert-or-overwrite, preserving first-insertion order.
  void Set(std::string_view key, Json value);

  /// Serialises the value. indent < 0 renders compact (one line); indent
  /// >= 0 pretty-prints with that base indentation, two spaces per level.
  std::string Dump(int indent = -1) const;

 private:
  friend struct JsonParser;

  static constexpr size_t kInlineChars = 14;
  // The second byte of a string: its length when it is inline, or kLong.
  static constexpr uint8_t kLong = 0xFF;
  // The second byte of an array or object: kGrown once Append or Set has
  // resized its block, whose capacity is then bit_ceil(size); otherwise the
  // block holds exactly size elements.
  static constexpr uint8_t kGrown = 1;

  // Both layouts start with the type and one tag byte, so either may be
  // read through the other (a union's common initial sequence).
  struct Inline {
    Type type;
    uint8_t size;
    char chars[kInlineChars];
  };
  struct Heap {
    Type type;
    uint8_t tag;
    uint32_t size;  // long-string bytes, array items or object members
    union {
      bool boolean;
      double number;
      char* text;
      Json* items;
      Member* members;
    };
  };
  union Rep {
    Rep() : heap{} {}
    Inline in;
    Heap heap;
  };

  // An array or object holding exactly the `count` values at `first`,
  // moved out of there.
  static Json ArrayOf(Json* first, size_t count);
  static Json ObjectOf(Member* first, size_t count);

  bool is_long_string() const {
    return is_string() && rep_.heap.tag == kLong;
  }
  void Release();
  void DumpTo(std::string* out, int indent, int depth) const;

  Rep rep_;
};

struct Json::Member {
  Json key;
  Json value;
};

static_assert(sizeof(Json) == 16);

/// Escapes `text` as the body of a JSON string literal (no quotes added).
std::string JsonEscape(std::string_view text);

}  // namespace twchase

#endif  // TWCHASE_SERVICE_JSON_H_
