#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace qps {
namespace {

TEST(JsonEscape, PassesPlainStringsThrough) {
  EXPECT_EQ(json_escape("family=tree/size=4"), "family=tree/size=4");
  EXPECT_EQ(json_quote("abc"), "\"abc\"");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape("\b\f"), "\\b\\f");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
}

TEST(JsonEscape, ArbitraryStringsRoundTrip) {
  const std::string nasty = "quote=\" slash=\\ nl=\nctl=\x02 tab=\t end";
  const JsonValue v = JsonValue::parse(json_quote(nasty));
  EXPECT_EQ(v.as_string(), nasty);
}

TEST(JsonNumber, FiniteDoublesRoundTripExactly) {
  for (const double x : {0.0, -0.0, 1.0 / 3.0, 6.0042000000000009,
                         1e-308, -1e308, 13361.647199999996}) {
    const JsonValue v = JsonValue::parse(json_number(x));
    EXPECT_EQ(v.as_double(), x) << json_number(x);
  }
}

TEST(JsonNumber, NonFiniteDoublesRoundTripViaStrings) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()),
            "\"Infinity\"");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()),
            "\"-Infinity\"");
  EXPECT_EQ(json_number(std::nan("")), "\"NaN\"");

  EXPECT_TRUE(std::isnan(JsonValue::parse("\"NaN\"").as_double()));
  EXPECT_EQ(JsonValue::parse("\"Infinity\"").as_double(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(JsonValue::parse("\"-Infinity\"").as_double(),
            -std::numeric_limits<double>::infinity());
}

TEST(JsonParse, HandlesNestedDocuments) {
  const JsonValue v = JsonValue::parse(
      R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}, "e": -3e2})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[1].as_double(), 2.5);
  EXPECT_EQ(v.at("a").as_array()[2].as_string(), "x");
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_TRUE(v.at("b").at("d").is_null());
  EXPECT_EQ(v.at("e").as_double(), -300.0);
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("z"));
}

TEST(JsonParse, HandlesWhitespaceAndEmptyContainers) {
  EXPECT_EQ(JsonValue::parse(" { } ").as_object().size(), 0u);
  EXPECT_EQ(JsonValue::parse("\t[\n]\r").as_array().size(), 0u);
}

TEST(JsonParse, DecodesUnicodeEscapes) {
  EXPECT_EQ(JsonValue::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(JsonValue::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(JsonValue::parse("\"\\u20ac\"").as_string(), "\xe2\x82\xac");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1,}"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("[1 2]"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("1.2.3"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"),
               std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("nul"), std::invalid_argument);
}

TEST(JsonParse, RejectsHostileNestingWithAParseError) {
  // 100,000 unclosed containers used to recurse until the stack overflowed.
  EXPECT_THROW(JsonValue::parse(std::string(100000, '[')),
               std::invalid_argument);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(JsonValue::parse(objects), std::invalid_argument);
  // Nesting up to the cap still parses.
  const std::string deep =
      std::string(256, '[') + "1" + std::string(256, ']');
  EXPECT_EQ(JsonValue::parse(deep).kind(), JsonValue::Kind::kArray);
  EXPECT_THROW(JsonValue::parse("[" + deep + "]"), std::invalid_argument);
}

TEST(JsonParse, AccessorsRejectKindMismatch) {
  const JsonValue v = JsonValue::parse("{\"a\": 1}");
  EXPECT_THROW(v.as_array(), std::invalid_argument);
  EXPECT_THROW(v.at("a").as_string(), std::invalid_argument);
  EXPECT_THROW(v.at("missing"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("\"x\"").as_double(), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("-1").as_uint64(), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("1.5").as_uint64(), std::invalid_argument);
  // Unrepresentable values must be rejected before the cast, not fed to
  // UB-prone float-to-integer conversion.
  EXPECT_THROW(JsonValue::parse("1e300").as_uint64(), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("\"NaN\"").as_uint64(),
               std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("\"Infinity\"").as_uint64(),
               std::invalid_argument);
  EXPECT_EQ(JsonValue::parse("12345").as_uint64(), 12345u);
}

}  // namespace
}  // namespace qps
