// util/json: the JsonValue reader (value kinds, string escapes,
// document-order member iteration, lookup helpers, rejection diagnostics)
// and the JsonWriter every JSON document goes through (escaping rule,
// comma placement, number spellings), read back by the reader.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "util/json.h"

namespace lw::util {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedContainers) {
  const JsonValue doc = JsonValue::parse(
      R"({"cases":[{"case":"a","frames":12},{"case":"b","frames":34}],)"
      R"("meta":{"runs":3}})");
  ASSERT_TRUE(doc.is_object());
  const JsonValue* cases = doc.find("cases");
  ASSERT_NE(cases, nullptr);
  ASSERT_TRUE(cases->is_array());
  ASSERT_EQ(cases->items().size(), 2u);
  EXPECT_EQ(cases->items()[1].string_or("case", ""), "b");
  EXPECT_DOUBLE_EQ(cases->items()[1].number_or("frames", 0.0), 34.0);
  const JsonValue* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_DOUBLE_EQ(meta->number_or("runs", 0.0), 3.0);
}

TEST(Json, MembersPreserveDocumentOrder) {
  const JsonValue doc = JsonValue::parse(R"({"z":1,"a":2,"m":3})");
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, DecodesStringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\/d\n\t")").as_string(),
            "a\"b\\c/d\n\t");
  // BMP \u escape decodes to UTF-8.
  EXPECT_EQ(JsonValue::parse(R"("é")").as_string(), "\xc3\xa9");
}

TEST(Json, LookupHelpersFallBackGracefully) {
  const JsonValue doc = JsonValue::parse(R"({"n":5,"s":"x"})");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(doc.number_or("missing", -1.0), -1.0);
  EXPECT_EQ(doc.string_or("missing", "fallback"), "fallback");
  // Wrong-kind lookups also fall back instead of throwing.
  EXPECT_DOUBLE_EQ(doc.number_or("s", -1.0), -1.0);
  EXPECT_EQ(doc.string_or("n", "fallback"), "fallback");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse(""), JsonParseError);
  EXPECT_THROW(JsonValue::parse("{"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("[1,]"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("nul"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), JsonParseError);
}

TEST(Json, ErrorsCarryTheFailureOffset) {
  try {
    JsonValue::parse("{\"a\": nope}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_GT(e.offset(), 0u);
    EXPECT_FALSE(std::string(e.what()).empty());
  }
}

TEST(Json, DecodesSurrogatePairsAndRejectsBadEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
  EXPECT_EQ(JsonValue::parse(R"("\u0041\u00E9")").as_string(), "A\xc3\xa9");
  EXPECT_THROW(JsonValue::parse(R"("\q")"), JsonParseError);
  EXPECT_THROW(JsonValue::parse(R"("\u12")"), JsonParseError);
  EXPECT_THROW(JsonValue::parse(R"("\u+12a")"), JsonParseError);
  EXPECT_THROW(JsonValue::parse(R"("\uzzzz")"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("\"a\\"), JsonParseError);
}

TEST(JsonWriter, EscapesByOneRuleThatTheReaderUndoes) {
  JsonWriter json;
  json.string("q\"b\\t\tn\n\x01\x1f\x7f\xc3\xa9/");
  EXPECT_EQ(json.str(),
            "\"q\\\"b\\\\t\\u0009n\\u000a\\u0001\\u001f\x7f\xc3\xa9/\"");
  std::string every;
  for (int c = 0; c < 256; ++c) every += static_cast<char>(c);
  json.clear();
  json.string(every);
  EXPECT_EQ(JsonValue::parse(json.str()).as_string(), every);
}

TEST(JsonWriter, KeyAndItemPlaceTheCommas) {
  JsonWriter json;
  json.open('{');
  json.key("a").value(std::uint64_t{1});
  json.key("b").open('[');
  json.item().value(true);
  json.item().null();
  json.item().open('{').close('}');
  json.item().open('[').close(']');
  json.close(']');
  json.key("k\"ey").string("v");
  json.key("c").open('[');
  json.item("\n  ").value(0.5);
  json.item("\n  ").value(std::uint64_t{2});
  json.raw("\n").close(']');
  json.close('}');
  EXPECT_EQ(json.str(),
            "{\"a\":1,\"b\":[true,null,{},[]],\"k\\\"ey\":\"v\","
            "\"c\":[\n  0.5,\n  2\n]}");
  EXPECT_NO_THROW(JsonValue::parse(json.str()));
}

TEST(JsonWriter, NumberSpellingsMatchPrintfAndOstream) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Zeros, fractions, both exponent forms, denormal, smallest normal,
  // largest finite, the infinities and both NaN signs.
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -2.5,
                           0.1,
                           1.0 / 3,
                           1e21,
                           1e-7,
                           123456.123456789,
                           4.9e-324,
                           2.2250738585072014e-308,
                           1.7976931348623157e308,
                           inf,
                           -inf,
                           nan,
                           -nan};
  for (const double v : values) {
    SCOPED_TRACE(v);
    char text[400];
    JsonWriter json;
    std::snprintf(text, sizeof text, "%.10g", v);
    EXPECT_EQ(json.general<10>(v).str(), text);
    json.clear();
    std::snprintf(text, sizeof text, "%.9g", v);
    EXPECT_EQ(json.general<9>(v).str(), text);
    json.clear();
    std::snprintf(text, sizeof text, "%.6f", v);
    EXPECT_EQ(json.fixed<6>(v).str(), text);
    json.clear();
    std::ostringstream out;
    out.precision(17);
    out << v;
    EXPECT_EQ(json.value(v).str(), out.str());
  }
  JsonWriter json;
  EXPECT_EQ(json.u64(18446744073709551615ull).str(), "18446744073709551615");
}

}  // namespace
}  // namespace lw::util
