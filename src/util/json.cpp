#include "src/util/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace dtaint {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  auto it = object().find(key);
  return it == object().end() ? nullptr : &it->second;
}

std::string_view FieldStr(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.Find(key);
  if (!v || !v->is_string()) return {};
  return v->string();
}

double FieldNum(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.Find(key);
  return v && v->is_number() ? v->number() : 0.0;
}

uint64_t FieldCount(const JsonValue& object, std::string_view key) {
  double d = FieldNum(object, key);
  if (!std::isfinite(d) || d <= 0) return 0;
  if (d >= 18446744073709551616.0) return UINT64_MAX;  // 2^64 and up
  return static_cast<uint64_t>(d);
}

bool FieldBool(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.Find(key);
  return v && v->is_bool() && v->boolean();
}

namespace {

constexpr int kMaxDepth = 200;  // recursion guard

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    Status status = ParseValue(&value, 0);
    if (!status.ok()) return status;
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing garbage");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return CorruptData("json: " + what + " at offset " +
                       std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        Status status = ParseString(&s);
        if (!status.ok()) return status;
        *out = JsonValue(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (!ConsumeWord("true")) return Error("bad literal");
        *out = JsonValue(true);
        return Status::Ok();
      case 'f':
        if (!ConsumeWord("false")) return Error("bad literal");
        *out = JsonValue(false);
        return Status::Ok();
      case 'n':
        if (!ConsumeWord("null")) return Error("bad literal");
        *out = JsonValue();
        return Status::Ok();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    JsonValue::Object object;
    SkipWhitespace();
    if (Consume('}')) {
      *out = JsonValue(std::move(object));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      object.insert_or_assign(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}'");
    }
    *out = JsonValue(std::move(object));
    return Status::Ok();
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    JsonValue::Array array;
    SkipWhitespace();
    if (Consume(']')) {
      *out = JsonValue(std::move(array));
      return Status::Ok();
    }
    while (true) {
      JsonValue value;
      Status status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']'");
    }
    *out = JsonValue(std::move(array));
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected string");
    std::string s;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        s += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': s += '"'; break;
        case '\\': s += '\\'; break;
        case '/': s += '/'; break;
        case 'b': s += '\b'; break;
        case 'f': s += '\f'; break;
        case 'n': s += '\n'; break;
        case 'r': s += '\r'; break;
        case 't': s += '\t'; break;
        case 'u': {
          uint32_t cp = 0;
          if (!ParseHex4(&cp)) return Error("bad \\u escape");
          // Surrogate pair?
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              uint32_t low = 0;
              if (!ParseHex4(&low) || low < 0xDC00 || low > 0xDFFF) {
                return Error("bad low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
              return Error("lone high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("lone low surrogate");
          }
          AppendUtf8(&s, cp);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    *out = std::move(s);
    return Status::Ok();
  }

  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    *out = v;
    return true;
  }

  static void AppendUtf8(std::string* s, uint32_t cp) {
    if (cp < 0x80) {
      *s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *s += static_cast<char>(0xC0 | (cp >> 6));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *s += static_cast<char>(0xE0 | (cp >> 12));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *s += static_cast<char>(0xF0 | (cp >> 18));
      *s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ >= text_.size() || !std::isdigit(
            static_cast<unsigned char>(text_[pos_]))) {
      pos_ = start;
      return Error("expected value");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("bad fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("bad exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    // The slice is a valid JSON number; strtod accepts a superset.
    std::string number(text_.substr(start, pos_ - start));
    *out = JsonValue(std::strtod(number.c_str(), nullptr));
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace dtaint
