#include "service/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace twchase {
namespace {

constexpr int kMaxDepth = 64;

const Json& NullJson() {
  static const Json* kNull = new Json();
  return *kNull;
}

}  // namespace

struct JsonParser {
  std::string_view text;
  size_t pos = 0;

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
    std::string value;
    TWCHASE_RETURN_IF_ERROR(ParseStringBody(&value));
    value.shrink_to_fit();
    *out = Json::String(std::move(value));
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

  Status ParseArray(Json* out, int depth) {
    Consume('[');
    *out = Json::Array();
    SkipSpace();
    if (Consume(']')) return Status::OK();
    while (true) {
      Json item;
      TWCHASE_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
      out->Append(std::move(item));
      SkipSpace();
      if (Consume(']')) {
        std::get<Json::Items>(out->value_).shrink_to_fit();
        return Status::OK();
      }
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Status ParseObject(Json* out, int depth) {
    Consume('{');
    *out = Json::Object();
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      std::string key;
      TWCHASE_RETURN_IF_ERROR(ParseStringBody(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      Json value;
      TWCHASE_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(key, std::move(value));
      SkipSpace();
      if (Consume('}')) {
        std::get<Json::Members>(out->value_).shrink_to_fit();
        return Status::OK();
      }
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }
};

Json Json::Bool(bool value) {
  Json j;
  j.value_ = value;
  return j;
}

Json Json::Number(double value) {
  Json j;
  j.value_ = value;
  return j;
}

Json Json::String(std::string value) {
  Json j;
  j.value_ = std::move(value);
  return j;
}

Json Json::Array() {
  Json j;
  j.value_ = Items();
  return j;
}

Json Json::Object() {
  Json j;
  j.value_ = Members();
  return j;
}

StatusOr<Json> Json::Parse(std::string_view text) {
  JsonParser parser{text};
  Json value;
  TWCHASE_RETURN_IF_ERROR(parser.ParseValue(&value, 0));
  parser.SkipSpace();
  if (parser.pos != text.size()) {
    return parser.Error("trailing characters after document");
  }
  return value;
}

bool Json::bool_value() const {
  const bool* value = std::get_if<bool>(&value_);
  return value != nullptr && *value;
}

double Json::number_value() const {
  const double* value = std::get_if<double>(&value_);
  return value != nullptr ? *value : 0;
}

const std::string& Json::string_value() const {
  static const std::string* kEmpty = new std::string();
  const std::string* value = std::get_if<std::string>(&value_);
  return value != nullptr ? *value : *kEmpty;
}

const Json::Items& Json::items() const {
  static const Items* kEmpty = new Items();
  const Items* value = std::get_if<Items>(&value_);
  return value != nullptr ? *value : *kEmpty;
}

const Json::Members& Json::members() const {
  static const Members* kEmpty = new Members();
  const Members* value = std::get_if<Members>(&value_);
  return value != nullptr ? *value : *kEmpty;
}

void Json::Append(Json value) {
  Items* items = std::get_if<Items>(&value_);
  TWCHASE_CHECK_MSG(items != nullptr, "Append on non-array Json");
  items->push_back(std::move(value));
}

bool Json::Has(std::string_view key) const {
  for (const auto& [name, value] : members()) {
    if (name == key) return true;
  }
  return false;
}

const Json& Json::Get(std::string_view key) const {
  for (const auto& [name, value] : members()) {
    if (name == key) return value;
  }
  return NullJson();
}

void Json::Set(std::string_view key, Json value) {
  Members* members = std::get_if<Members>(&value_);
  TWCHASE_CHECK_MSG(members != nullptr, "Set on non-object Json");
  for (auto& [name, existing] : *members) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  members->emplace_back(std::string(key), std::move(value));
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
      const Items& elements = items();
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
      const Members& fields = members();
      if (fields.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline_indent(depth + 1);
        out->push_back('"');
        *out += JsonEscape(fields[i].first);
        *out += pretty ? "\": " : "\":";
        fields[i].second.DumpTo(out, indent, depth + 1);
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
