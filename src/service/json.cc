#include "service/json.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace twchase {
namespace {

constexpr int kMaxDepth = 64;

const Json& NullJson() {
  static const Json* kNull = new Json();
  return *kNull;
}

// Bytes a stored key takes: its length word and its bytes, padded to 4.
size_t StoredKeyBytes(size_t length) {
  return sizeof(uint32_t) + (length + 3) / 4 * 4;
}

// Writes `text` as a stored key at `at`.
void StoreKey(std::string_view text, char* at) {
  const uint32_t length = static_cast<uint32_t>(text.size());
  std::memcpy(at, &length, sizeof length);
  std::memcpy(at + sizeof length, text.data(), text.size());
}

// Shared keys. Object keys repeat from document to document (a service's
// payloads use a few dozen), so the first kMaxSharedKeys distinct keys of
// at most kMaxSharedKeyBytes bytes are stored once for the process, and
// every key equal to one of them points there. Entries are never freed.
// Any other key is stored with its object, so a flood of distinct keys
// costs the pool a bounded amount and then nothing.
class SharedKeys {
 public:
  static constexpr size_t kMaxSharedKeys = 1024;
  static constexpr size_t kMaxSharedKeyBytes = 64;

  // The stored key equal to `text`, added if there is room; else null.
  const char* Find(std::string_view text) {
    if (text.size() > kMaxSharedKeyBytes) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(text);
    if (it != entries_.end()) return it->second;
    if (entries_.size() == kMaxSharedKeys) return nullptr;
    char* entry =
        static_cast<char*>(::operator new(StoredKeyBytes(text.size())));
    StoreKey(text, entry);
    entries_.emplace(std::string_view(entry + sizeof(uint32_t), text.size()),
                     entry);
    return entry;
  }

 private:
  std::mutex mu_;
  // Keyed by views of the entries' own bytes.
  std::unordered_map<std::string_view, const char*> entries_;
};

SharedKeys& Shared() {
  static SharedKeys* keys = new SharedKeys();
  return *keys;
}

// The stored empty key, which a moved-from key holds.
alignas(4) constexpr char kEmptyKey[sizeof(uint32_t)] = {};

}  // namespace

uintptr_t Json::Key::Make(std::string_view text) {
  if (const char* shared = Shared().Find(text)) {
    return reinterpret_cast<uintptr_t>(shared) | kShared;
  }
  TWCHASE_CHECK_MSG(text.size() <= std::numeric_limits<uint32_t>::max(),
                    "Json key too large");
  char* block = static_cast<char*>(::operator new(StoredKeyBytes(text.size())));
  StoreKey(text, block);
  return reinterpret_cast<uintptr_t>(block) | kOwned;
}

Json::Key::Key(std::string_view text) : rep_(Make(text)) {}

Json::Key::Key(const Key& other)
    : rep_(other.IsShared() ? other.rep_ : Make(other.string_value())) {}

Json::Key& Json::Key::operator=(const Key& other) {
  if (this != &other) *this = Key(other);
  return *this;
}

Json::Key& Json::Key::operator=(Key&& other) noexcept {
  if (this != &other) {
    Release();
    rep_ = other.rep_;
    other.rep_ = Empty();
  }
  return *this;
}

std::string_view Json::Key::string_value() const {
  uint32_t length = 0;
  std::memcpy(&length, Bytes(), sizeof length);
  return {Bytes() + sizeof length, length};
}

uintptr_t Json::Key::Empty() {
  return reinterpret_cast<uintptr_t>(kEmptyKey) | kShared;
}

void Json::Key::Release() {
  if ((rep_ & kOwned) != 0) ::operator delete(const_cast<char*>(Bytes()));
  rep_ = Empty();
}

struct JsonParser {
  std::string_view text;
  size_t pos = 0;
  std::string scratch;                // the string being unescaped
  std::vector<Json> items;            // open arrays' values, innermost last
  std::vector<Json::Member> members;  // open objects' members, likewise

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos));
  }

  void SkipSpace() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool Consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  Status ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos >= text.size()) return Error("unexpected end of input");
    char c = text[pos];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': return ParseString(out);
      case 't':
      case 'f': return ParseBool(out);
      case 'n': return ParseNull(out);
      default: return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view word, const char* what) {
    if (text.substr(pos, word.size()) != word) {
      return Error(std::string("invalid ") + what);
    }
    pos += word.size();
    return Status::OK();
  }

  Status ParseNull(Json* out) {
    TWCHASE_RETURN_IF_ERROR(ParseLiteral("null", "literal"));
    *out = Json::Null();
    return Status::OK();
  }

  Status ParseBool(Json* out) {
    if (text[pos] == 't') {
      TWCHASE_RETURN_IF_ERROR(ParseLiteral("true", "literal"));
      *out = Json::Bool(true);
    } else {
      TWCHASE_RETURN_IF_ERROR(ParseLiteral("false", "literal"));
      *out = Json::Bool(false);
    }
    return Status::OK();
  }

  Status ParseNumber(Json* out) {
    size_t start = pos;
    if (Consume('-')) {
    }
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return Error("invalid value");
    std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
      pos = start;
      return Error("invalid number");
    }
    *out = Json::Number(value);
    return Status::OK();
  }

  Status ParseString(Json* out) {
    scratch.clear();
    TWCHASE_RETURN_IF_ERROR(ParseStringBody(&scratch));
    *out = Json::String(scratch);
    return Status::OK();
  }

  Status ParseStringBody(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    while (true) {
      if (pos >= text.size()) return Error("unterminated string");
      char c = text[pos++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) return Error("unterminated escape");
      char e = text[pos++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return Error("invalid \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs are passed through
          // as two 3-byte sequences — the service only transports program
          // text and identifiers, which are ASCII in practice).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return Error("invalid escape");
      }
    }
  }

  // Containers collect their values on a stack shared by every nesting
  // level and move them into one exact-size block at the closing bracket.
  Status ParseArray(Json* out, int depth) {
    Consume('[');
    const size_t base = items.size();
    SkipSpace();
    if (!Consume(']')) {
      while (true) {
        Json item;
        TWCHASE_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
        items.push_back(std::move(item));
        SkipSpace();
        if (Consume(']')) break;
        if (!Consume(',')) return Error("expected ',' or ']'");
      }
    }
    *out = Json::ArrayOf(items.data() + base, items.size() - base);
    items.resize(base);
    return Status::OK();
  }

  Status ParseObject(Json* out, int depth) {
    Consume('{');
    const size_t base = members.size();
    SkipSpace();
    if (!Consume('}')) {
      while (true) {
        SkipSpace();
        scratch.clear();
        TWCHASE_RETURN_IF_ERROR(ParseStringBody(&scratch));
        Json::Key key(scratch);
        SkipSpace();
        if (!Consume(':')) return Error("expected ':'");
        Json value;
        TWCHASE_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
        // A repeated key overwrites in place, as Set does.
        auto repeated = std::find_if(
            members.begin() + static_cast<std::ptrdiff_t>(base),
            members.end(), [&](const Json::Member& member) {
              return member.key.string_value() == key.string_value();
            });
        if (repeated != members.end()) {
          repeated->value = std::move(value);
        } else {
          members.push_back({std::move(key), std::move(value)});
        }
        SkipSpace();
        if (Consume('}')) break;
        if (!Consume(',')) return Error("expected ',' or '}'");
      }
    }
    *out = Json::ObjectOf(members.data() + base, members.size() - base);
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(base),
                  members.end());
    return Status::OK();
  }
};

namespace {

// Raw storage for `count` values of T; construction is the caller's.
template <typename T>
T* AllocateBlock(size_t count) {
  return static_cast<T*>(::operator new(count * sizeof(T)));
}

// Destroys the `count` values at `block` and frees it.
template <typename T>
void FreeBlock(T* block, size_t count) {
  std::destroy_n(block, count);
  ::operator delete(block);
}

// A block of exactly `count` values moved from `first`.
template <typename T>
T* MoveBlock(T* first, size_t count) {
  if (count == 0) return nullptr;
  T* block = AllocateBlock<T>(count);
  std::uninitialized_move_n(first, count, block);
  return block;
}

// A block of exactly `count` copies of the values at `first`.
template <typename T>
T* CopyBlock(const T* first, size_t count) {
  if (count == 0) return nullptr;
  T* block = AllocateBlock<T>(count);
  std::uninitialized_copy_n(first, count, block);
  return block;
}

uint32_t CheckedSize(size_t size) {
  TWCHASE_CHECK_MSG(size <= std::numeric_limits<uint32_t>::max(),
                    "Json value too large");
  return static_cast<uint32_t>(size);
}

// Makes room for one more value in a block of `size` values whose second
// byte is `*tag`: a parsed (exact) block or a full grown one moves into a
// block of bit_ceil(size + 1) and is marked grown.
template <typename T>
T* GrowBlock(T* block, uint32_t size, uint8_t* tag, uint8_t grown) {
  const size_t capacity = (*tag & grown) != 0 && size > 0
                              ? std::bit_ceil(size_t{size})
                              : size_t{size};
  if (size < capacity) return block;
  const size_t new_capacity = std::bit_ceil(size_t{size} + 1);
  CheckedSize(new_capacity);
  T* bigger = AllocateBlock<T>(new_capacity);
  std::uninitialized_move_n(block, size, bigger);
  if (block != nullptr) FreeBlock(block, size);
  *tag |= grown;
  return bigger;
}

}  // namespace

Json::Json(const Json& other) : rep_(other.rep_) {
  Heap& heap = rep_.heap;
  if (other.is_long_string()) {
    heap.text = CopyBlock(other.rep_.heap.text, heap.size);
    heap.tag = kLong;
  } else if (other.is_array()) {
    heap.items = CopyBlock(other.rep_.heap.items, heap.size);
    heap.tag = 0;
  } else if (other.is_object()) {
    heap.members = CopyBlock(other.rep_.heap.members, heap.size);
    heap.tag = 0;
  }
}

Json& Json::operator=(const Json& other) {
  if (this != &other) *this = Json(other);
  return *this;
}

Json& Json::operator=(Json&& other) noexcept {
  if (this != &other) {
    Release();
    rep_ = other.rep_;
    other.rep_ = Rep();
  }
  return *this;
}

void Json::Release() {
  Heap& heap = rep_.heap;
  if (is_long_string()) {
    if (heap.tag == kLong) ::operator delete(heap.text);
  } else if (is_array()) {
    if (heap.items != nullptr && (heap.tag & kBorrowed) == 0) {
      FreeBlock(heap.items, heap.size);
    }
  } else if (is_object()) {
    if (heap.members != nullptr && (heap.tag & kBorrowed) == 0) {
      FreeBlock(heap.members, heap.size);
    }
  }
  rep_ = Rep();
}

void Json::MeasureNested(const Json& value, size_t* nodes, size_t* keys,
                         size_t* text) {
  if (value.is_long_string()) {
    *text += value.rep_.heap.size;
  } else if (value.is_array()) {
    *nodes += value.items().size() * sizeof(Json);
    for (const Json& item : value.items()) {
      MeasureNested(item, nodes, keys, text);
    }
  } else if (value.is_object()) {
    *nodes += value.members().size() * sizeof(Member);
    for (const Member& member : value.members()) {
      if (!member.key.IsShared()) {
        *keys += StoredKeyBytes(member.key.string_value().size());
      }
      MeasureNested(member.value, nodes, keys, text);
    }
  }
}

void Json::PlaceBorrowed(const Json& src, Json* dst, char** nodes,
                         char** keys, char** text) {
  new (dst) Json();
  Heap& heap = dst->rep_.heap;
  if (src.is_long_string()) {
    heap = src.rep_.heap;
    heap.tag = kBorrowedLong;
    heap.text = *text;
    std::copy_n(src.rep_.heap.text, heap.size, *text);
    *text += heap.size;
  } else if (src.is_array() && src.rep_.heap.size > 0) {
    heap = src.rep_.heap;
    heap.tag = kBorrowed;
    heap.items = reinterpret_cast<Json*>(*nodes);
    *nodes += heap.size * sizeof(Json);
    for (uint32_t i = 0; i < heap.size; ++i) {
      PlaceBorrowed(src.rep_.heap.items[i], heap.items + i, nodes, keys,
                    text);
    }
  } else if (src.is_object() && src.rep_.heap.size > 0) {
    heap = src.rep_.heap;
    heap.tag = kBorrowed;
    heap.members = reinterpret_cast<Member*>(*nodes);
    *nodes += heap.size * sizeof(Member);
    for (uint32_t i = 0; i < heap.size; ++i) {
      const Member& from = src.rep_.heap.members[i];
      Member* to = heap.members + i;
      // The key is borrowed too: shared, or stored in the block.
      uintptr_t key = from.key.rep_;
      if (!from.key.IsShared()) {
        const std::string_view bytes = from.key.string_value();
        StoreKey(bytes, *keys);
        key = reinterpret_cast<uintptr_t>(*keys);
        *keys += StoredKeyBytes(bytes.size());
      }
      new (&to->key) Key(Key::Borrowed(key));
      PlaceBorrowed(from.value, &to->value, nodes, keys, text);
    }
  } else {
    dst->rep_ = src.rep_;  // inline: a scalar, a short string, empty
    if (src.is_array() || src.is_object()) heap.tag = 0;
  }
}

Json Json::InOneBlock(Json tree) {
  if (!(tree.is_array() || tree.is_object()) || tree.rep_.heap.size == 0) {
    return tree;
  }
  size_t nodes = 0;
  size_t keys = 0;
  size_t text = 0;
  MeasureNested(tree, &nodes, &keys, &text);
  char* block = static_cast<char*>(::operator new(nodes + keys + text));
  char* node_cursor = block;
  char* key_cursor = block + nodes;
  char* text_cursor = key_cursor + keys;
  Json document;
  PlaceBorrowed(tree, &document, &node_cursor, &key_cursor, &text_cursor);
  // The root's values open the block, so the root owns it.
  document.rep_.heap.tag = kDocument;
  return document;
}

void Json::DetachDocument() {
  if ((rep_.heap.tag & kDocument) != 0) *this = Json(*this);
}

Json Json::Bool(bool value) {
  Json j;
  j.rep_.heap.type = Type::kBool;
  j.rep_.heap.boolean = value;
  return j;
}

Json Json::Number(double value) {
  Json j;
  j.rep_.heap.type = Type::kNumber;
  j.rep_.heap.number = value;
  return j;
}

Json Json::String(std::string_view value) {
  Json j;
  if (value.size() <= kInlineChars) {
    Inline in{};
    in.type = Type::kString;
    in.size = static_cast<uint8_t>(value.size());
    std::copy(value.begin(), value.end(), in.chars);
    j.rep_.in = in;
    return j;
  }
  Heap& heap = j.rep_.heap;
  heap.type = Type::kString;
  heap.tag = kLong;
  heap.size = CheckedSize(value.size());
  heap.text = AllocateBlock<char>(value.size());
  std::copy(value.begin(), value.end(), heap.text);
  return j;
}

Json Json::Array() {
  Json j;
  j.rep_.heap.type = Type::kArray;
  j.rep_.heap.items = nullptr;
  return j;
}

Json Json::Object() {
  Json j;
  j.rep_.heap.type = Type::kObject;
  j.rep_.heap.members = nullptr;
  return j;
}

Json Json::ArrayOf(Json* first, size_t count) {
  Json j = Array();
  j.rep_.heap.size = CheckedSize(count);
  j.rep_.heap.items = MoveBlock(first, count);
  return j;
}

Json Json::ObjectOf(Member* first, size_t count) {
  Json j = Object();
  j.rep_.heap.size = CheckedSize(count);
  j.rep_.heap.members = MoveBlock(first, count);
  return j;
}

StatusOr<Json> Json::Parse(std::string_view text) {
  JsonParser parser;
  parser.text = text;
  Json value;
  TWCHASE_RETURN_IF_ERROR(parser.ParseValue(&value, 0));
  parser.SkipSpace();
  if (parser.pos != text.size()) {
    return parser.Error("trailing characters after document");
  }
  return InOneBlock(std::move(value));
}

bool Json::bool_value() const { return is_bool() && rep_.heap.boolean; }

double Json::number_value() const {
  return is_number() ? rep_.heap.number : 0;
}

std::string_view Json::string_value() const {
  if (!is_string()) return {};
  if (is_long_string()) return {rep_.heap.text, rep_.heap.size};
  return {rep_.in.chars, rep_.in.size};
}

std::span<const Json> Json::items() const {
  if (!is_array() || rep_.heap.size == 0) return {};
  return {rep_.heap.items, rep_.heap.size};
}

std::span<const Json::Member> Json::members() const {
  if (!is_object() || rep_.heap.size == 0) return {};
  return {rep_.heap.members, rep_.heap.size};
}

void Json::Append(Json value) {
  TWCHASE_CHECK_MSG(is_array(), "Append on non-array Json");
  DetachDocument();
  Heap& heap = rep_.heap;
  heap.items = GrowBlock(heap.items, heap.size, &heap.tag, kGrown);
  new (heap.items + heap.size) Json(std::move(value));
  ++heap.size;
}

bool Json::Has(std::string_view key) const {
  for (const Member& member : members()) {
    if (member.key.string_value() == key) return true;
  }
  return false;
}

const Json& Json::Get(std::string_view key) const {
  for (const Member& member : members()) {
    if (member.key.string_value() == key) return member.value;
  }
  return NullJson();
}

void Json::Set(std::string_view key, Json value) {
  TWCHASE_CHECK_MSG(is_object(), "Set on non-object Json");
  DetachDocument();
  Heap& heap = rep_.heap;
  for (uint32_t i = 0; i < heap.size; ++i) {
    if (heap.members[i].key.string_value() == key) {
      heap.members[i].value = std::move(value);
      return;
    }
  }
  heap.members = GrowBlock(heap.members, heap.size, &heap.tag, kGrown);
  new (heap.members + heap.size) Member{Key(key), std::move(value)};
  ++heap.size;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  auto newline_indent = [&](int levels) {
    if (!pretty) return;
    out->push_back('\n');
    out->append(static_cast<size_t>(indent + 2 * levels), ' ');
  };
  switch (type()) {
    case Type::kNull: *out += "null"; return;
    case Type::kBool: *out += bool_value() ? "true" : "false"; return;
    case Type::kNumber: {
      const double number = number_value();
      double rounded = std::nearbyint(number);
      char buffer[40];
      if (rounded == number && std::fabs(number) < 9.0e15) {
        std::snprintf(buffer, sizeof(buffer), "%.0f", number);
      } else {
        std::snprintf(buffer, sizeof(buffer), "%.6g", number);
      }
      *out += buffer;
      return;
    }
    case Type::kString:
      out->push_back('"');
      *out += JsonEscape(string_value());
      out->push_back('"');
      return;
    case Type::kArray: {
      const std::span<const Json> elements = items();
      if (elements.empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < elements.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline_indent(depth + 1);
        elements[i].DumpTo(out, indent, depth + 1);
      }
      newline_indent(depth);
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      const std::span<const Member> fields = members();
      if (fields.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline_indent(depth + 1);
        out->push_back('"');
        *out += JsonEscape(fields[i].key.string_value());
        *out += pretty ? "\": " : "\":";
        fields[i].value.DumpTo(out, indent, depth + 1);
      }
      newline_indent(depth);
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

}  // namespace twchase
