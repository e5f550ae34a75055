#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace qps {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_quote(std::string_view s) {
  return '"' + json_escape(s) + '"';
}

std::string json_number(double value) {
  if (std::isnan(value)) return "\"NaN\"";
  if (std::isinf(value)) return value > 0 ? "\"Infinity\"" : "\"-Infinity\"";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g",
                std::numeric_limits<double>::max_digits10, value);
  return buf;
}

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("JSON parse error at offset " +
                              std::to_string(pos) + ": " + what);
}

}  // namespace

/// Recursive-descent parser over a string_view; friend of JsonValue.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return v;
  }

 private:
  // Arrays and objects recurse; past this depth the input is rejected with
  // a parse error instead of overflowing the stack (hostile input such as
  // 100,000 '[' would otherwise crash the process).
  static constexpr std::size_t kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) fail(pos_, "nesting deeper than 256 levels");
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return make_string(parse_string());
      case 't':
        if (consume_literal("true")) return make_bool(true);
        fail(pos_, "bad literal");
      case 'f':
        if (consume_literal("false")) return make_bool(false);
        fail(pos_, "bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail(pos_, "bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail(pos_ - 1, "bad hex digit in \\u escape");
          }
          // UTF-8 encode; we never emit surrogate pairs ourselves (escapes
          // are only produced for control characters) but decode any BMP
          // code point for robustness.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail(pos_ - 1, "bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail(pos_, "expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail(start, "malformed number");
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = value;
    return v;
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  static JsonValue make_string(std::string s) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    v.string_ = std::move(s);
    return v;
  }
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool)
    throw std::invalid_argument("JSON value is not a boolean");
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ == Kind::kNumber) return number_;
  if (kind_ == Kind::kString) {
    if (string_ == "NaN") return std::numeric_limits<double>::quiet_NaN();
    if (string_ == "Infinity") return std::numeric_limits<double>::infinity();
    if (string_ == "-Infinity") return -std::numeric_limits<double>::infinity();
  }
  throw std::invalid_argument("JSON value is not a number");
}

std::uint64_t JsonValue::as_uint64() const {
  const double d = as_double();
  // Range-check before the cast: float-to-integer conversion of a value
  // the target type cannot represent (negative, NaN, >= 2^64) is UB, and
  // these values arrive from untrusted journal/wire lines.
  if (!(d >= 0.0) || d >= 18446744073709551616.0 || d != std::trunc(d))
    throw std::invalid_argument("JSON number is not an exact uint64");
  return static_cast<std::uint64_t>(d);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString)
    throw std::invalid_argument("JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray)
    throw std::invalid_argument("JSON value is not an array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject)
    throw std::invalid_argument("JSON value is not an object");
  return object_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end())
    throw std::invalid_argument("JSON object has no member '" + key + "'");
  return it->second;
}

bool JsonValue::contains(const std::string& key) const {
  return as_object().count(key) != 0;
}

}  // namespace qps
