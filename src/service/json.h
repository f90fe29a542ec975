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
// Compact nodes: clients keep fetched results, so the per-node footprint is
// what a busy service's memory grows by. A node is 16 bytes. A string of up
// to 14 bytes lives inside the node. A built longer string, array or object
// is one heap block; a container grown by Append or Set doubles its block
// as it fills. A parsed document is one heap block in all: the root
// container's values come first, then every nested container's, then the
// keys and the bytes of every long string, each at its exact size. Nested
// values borrow their storage from that block; Append or Set on a parsed
// root first copies the document out into blocks of its own.
//
// Object keys are 8 bytes, so a member is 24, and keys are shared: the
// first 1,024 distinct keys of up to 64 bytes (json.cc) are stored once for
// the process, so the keys a service's payloads repeat cost each document
// 8 bytes a member. Any other key's bytes are stored with its object.
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

  /// One object member and its key.
  class Key;
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
  // A long string inside a parsed document's block (it frees nothing).
  static constexpr uint8_t kBorrowedLong = 0xFE;
  // Bits of the second byte of an array or object. kGrown once Append or
  // Set has resized its block, whose capacity is then bit_ceil(size);
  // otherwise the block holds exactly size elements. kBorrowed: the block
  // lies inside a parsed document's block (it frees nothing). kDocument:
  // the root of a parsed document, whose block holds every nested value.
  static constexpr uint8_t kGrown = 1;
  static constexpr uint8_t kBorrowed = 2;
  static constexpr uint8_t kDocument = 4;

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

  // `tree` as one document block (see above), or itself when it has no
  // nested storage to gather.
  static Json InOneBlock(Json tree);
  // Adds the bytes of `value`'s nested blocks in one document block:
  // container values to `*nodes`, stored keys (4-aligned) to `*keys`,
  // long-string bytes to `*text`.
  static void MeasureNested(const Json& value, size_t* nodes, size_t* keys,
                            size_t* text);
  // Copies `src` into `*dst` with every nested block carved from the
  // cursors: container values from `nodes`, keys other than the shared
  // ones from `keys`, long-string bytes from `text`.
  static void PlaceBorrowed(const Json& src, Json* dst, char** nodes,
                            char** keys, char** text);

  bool is_long_string() const {
    return is_string() && rep_.in.size > kInlineChars;
  }
  // Set and Append call this first: a parsed root copies its document out.
  void DetachDocument();
  void Release();
  void DumpTo(std::string* out, int indent, int depth) const;

  Rep rep_;
};

/// An object member's key: a pointer to a 32-bit length and the bytes.
/// The bytes are a shared entry (see above), a block the key owns, or part
/// of a parsed document's block (borrowed). Copying shares a shared key
/// and copies any other into a block of its own.
class Json::Key {
 public:
  explicit Key(std::string_view text);
  Key(const Key& other);
  Key(Key&& other) noexcept : rep_(other.rep_) { other.rep_ = Empty(); }
  Key& operator=(const Key& other);
  Key& operator=(Key&& other) noexcept;
  ~Key() { Release(); }

  std::string_view string_value() const;

 private:
  friend class Json;
  // Tag bits of rep_: it owns its block, or it points at a shared entry.
  // Neither: it borrows from a parsed document's block.
  static constexpr uintptr_t kOwned = 1;
  static constexpr uintptr_t kShared = 2;

  // The rep of `text`: its shared entry, else a new owned block.
  static uintptr_t Make(std::string_view text);
  // A key over `rep`, which it does not own.
  struct BorrowTag {};
  Key(BorrowTag, uintptr_t rep) : rep_(rep) {}
  static Key Borrowed(uintptr_t rep) { return Key(BorrowTag{}, rep); }
  // The rep of the empty key, which a moved-from key holds.
  static uintptr_t Empty();
  const char* Bytes() const {
    return reinterpret_cast<const char*>(rep_ & ~(kOwned | kShared));
  }
  bool IsShared() const { return (rep_ & kShared) != 0; }
  void Release();

  uintptr_t rep_;
};

struct Json::Member {
  Key key;
  Json value;
};

static_assert(sizeof(Json) == 16);
static_assert(sizeof(Json::Member) == 24);

/// Escapes `text` as the body of a JSON string literal (no quotes added).
std::string JsonEscape(std::string_view text);

}  // namespace twchase

#endif  // TWCHASE_SERVICE_JSON_H_
