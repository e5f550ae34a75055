// Minimal JSON writing and parsing for the sweep wire protocol, checkpoint
// journals, and bench reports.
//
// The writer side guarantees round-trips: json_number() prints doubles with
// max_digits10 so text -> strtod recovers the exact bits, and encodes the
// non-finite values JSON cannot express as the strings "NaN", "Infinity",
// and "-Infinity" (json_to_double() inverts that encoding).  json_escape()
// implements the full RFC 8259 escape set, so arbitrary strings -- control
// characters included -- survive a write/parse cycle.
//
// The parser handles the complete JSON value grammar (objects, arrays,
// strings with escapes, numbers, literals) into a small JsonValue tree.  It
// is not a streaming parser and keeps everything in memory; protocol lines
// and journal entries are tiny, so that is the right trade.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace qps {

/// Body of a JSON string literal for `s` (quotes not included): ", \ and
/// control characters are escaped per RFC 8259.
std::string json_escape(std::string_view s);

/// `s` as a complete JSON string literal, surrounding quotes included.
std::string json_quote(std::string_view s);

/// `value` as a JSON token that parses back to the exact same bits:
/// max_digits10 decimal for finite values, the quoted strings "NaN" /
/// "Infinity" / "-Infinity" otherwise.
std::string json_number(double value);

/// A parsed JSON value.  Accessors throw std::invalid_argument on kind
/// mismatch so malformed protocol lines fail loudly, not with defaults.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses exactly one JSON document; trailing non-whitespace, any syntax
  /// error or arrays/objects nested deeper than 256 levels throw
  /// std::invalid_argument.
  static JsonValue parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  bool as_bool() const;
  /// The numeric value; also accepts the string encodings "NaN",
  /// "Infinity" and "-Infinity" emitted by json_number().
  double as_double() const;
  /// as_double() checked to be an exact non-negative integer.
  std::uint64_t as_uint64() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  /// Object member lookup; throws std::invalid_argument when absent.
  const JsonValue& at(const std::string& key) const;
  bool contains(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  friend class JsonParser;
};

}  // namespace qps
