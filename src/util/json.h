// Minimal JSON parser (RFC 8259 subset: full syntax, numbers held as
// double) — the consuming side of the repo's JSON producers. Report
// JSON, trace JSON, and metrics JSON are all validated against this
// parser in the test suites, so "what we emit" and "what a consumer
// can read back" can never drift apart silently.
//
// Deliberately small: parse into an owning tree, no serialization (the
// producers own their formats), no streaming.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/util/status.h"

namespace dtaint {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Ordered map: iteration order is key order, not document order.
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() : data_(nullptr) {}
  explicit JsonValue(bool b) : data_(b) {}
  explicit JsonValue(double d) : data_(d) {}
  explicit JsonValue(std::string s) : data_(std::move(s)) {}
  explicit JsonValue(Array a) : data_(std::move(a)) {}
  explicit JsonValue(Object o) : data_(std::move(o)) {}

  Kind kind() const { return static_cast<Kind>(data_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  bool boolean() const { return std::get<bool>(data_); }
  double number() const { return std::get<double>(data_); }
  const std::string& string() const { return std::get<std::string>(data_); }
  const Array& array() const { return std::get<Array>(data_); }
  const Object& object() const { return std::get<Object>(data_); }

  /// Object member lookup; nullptr when not an object or key absent.
  const JsonValue* Find(std::string_view key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      data_;
};

/// Typed member readers for documents another process wrote (event
/// streams, worker results): a member that is absent, or of another
/// kind, reads as the empty string, 0 or false.
std::string_view FieldStr(const JsonValue& object, std::string_view key);
double FieldNum(const JsonValue& object, std::string_view key);
/// A count: negative and non-finite numbers read as 0, and finite ones
/// past the range of uint64_t saturate at its maximum.
uint64_t FieldCount(const JsonValue& object, std::string_view key);
bool FieldBool(const JsonValue& object, std::string_view key);

/// Parses exactly one JSON document (trailing whitespace allowed,
/// trailing garbage is an error). Errors carry a byte offset.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace dtaint
