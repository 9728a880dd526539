// Tests for the generic JSON tree (src/util/json.h): builders, parse /
// serialize round-trips, deterministic output, and error reporting.

#include "src/util/json.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace crius {
namespace {

TEST(JsonTest, BuildersProduceExpectedKinds) {
  EXPECT_TRUE(Json::Null().is_null());
  EXPECT_TRUE(Json::Bool(true).is_bool());
  EXPECT_TRUE(Json::Number(3.5).is_number());
  EXPECT_TRUE(Json::Str("x").is_string());
  EXPECT_TRUE(Json::Array().is_array());
  EXPECT_TRUE(Json::Object().is_object());
  EXPECT_TRUE(Json().is_null());  // default-constructed is null
}

TEST(JsonTest, ObjectKeepsInsertionOrderAndReplacesInPlace) {
  Json obj = Json::Object();
  obj.Set("zulu", Json::Number(1));
  obj.Set("alpha", Json::Number(2));
  obj.Set("mike", Json::Number(3));
  obj.Set("zulu", Json::Number(9));  // replace keeps first-insertion slot
  ASSERT_EQ(obj.fields().size(), 3u);
  EXPECT_EQ(obj.fields()[0].first, "zulu");
  EXPECT_EQ(obj.fields()[0].second.number(), 9.0);
  EXPECT_EQ(obj.fields()[1].first, "alpha");
  EXPECT_EQ(obj.fields()[2].first, "mike");
  EXPECT_EQ(obj.Serialize(), R"({"zulu":9,"alpha":2,"mike":3})");
}

TEST(JsonTest, AccessorsFallBackOnMissingOrMismatchedKind) {
  Json obj = Json::Object();
  obj.Set("n", Json::Number(4.0));
  obj.Set("s", Json::Str("hi"));
  obj.Set("b", Json::Bool(true));
  EXPECT_DOUBLE_EQ(obj.NumberOr("n", -1.0), 4.0);
  EXPECT_DOUBLE_EQ(obj.NumberOr("missing", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(obj.NumberOr("s", -1.0), -1.0);  // kind mismatch
  EXPECT_EQ(obj.StringOr("s", "fb"), "hi");
  EXPECT_EQ(obj.StringOr("n", "fb"), "fb");
  EXPECT_TRUE(obj.BoolOr("b", false));
  EXPECT_TRUE(obj.BoolOr("missing", true));
  EXPECT_EQ(obj.Find("missing"), nullptr);
  ASSERT_NE(obj.Find("n"), nullptr);
}

TEST(JsonTest, SerializeCompactAndPretty) {
  Json obj = Json::Object();
  obj.Set("a", Json::Number(1));
  Json arr = Json::Array();
  arr.Push(Json::Bool(false));
  arr.Push(Json::Null());
  obj.Set("list", std::move(arr));
  EXPECT_EQ(obj.Serialize(), R"({"a":1,"list":[false,null]})");
  const std::string pretty = obj.Serialize(2);
  EXPECT_NE(pretty.find("{\n  \"a\": 1,"), std::string::npos);
  EXPECT_NE(pretty.find("\"list\": [\n"), std::string::npos);
}

TEST(JsonTest, ParseSerializeRoundTrip) {
  const std::string text =
      R"({"name":"crius","pi":3.14159,"neg":-0.5,"big":1e6,"flag":true,)"
      R"("nothing":null,"nested":{"inner":[1,2,3],"s":"a\"b\\c"}})";
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(text, &parsed, &error)) << error;
  // Serialize -> parse -> serialize must be a fixed point.
  const std::string once = parsed.Serialize();
  Json reparsed;
  ASSERT_TRUE(Json::Parse(once, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.Serialize(), once);
  EXPECT_EQ(parsed.StringOr("name", ""), "crius");
  EXPECT_DOUBLE_EQ(parsed.NumberOr("pi", 0.0), 3.14159);
  const Json* nested = parsed.Find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->StringOr("s", ""), "a\"b\\c");
  const Json* inner = nested->Find("inner");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->items().size(), 3u);
  EXPECT_DOUBLE_EQ(inner->items()[2].number(), 3.0);
}

TEST(JsonTest, ParseHandlesEscapes) {
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(R"(["\n\t\r\b\f\/\u0041"])", &parsed, &error)) << error;
  ASSERT_EQ(parsed.items().size(), 1u);
  EXPECT_EQ(parsed.items()[0].str(), "\n\t\r\b\f/A");
}

TEST(JsonTest, EscapeStringQuotesAndControls) {
  EXPECT_EQ(Json::EscapeString("plain"), "\"plain\"");
  EXPECT_EQ(Json::EscapeString("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(Json::EscapeString("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(Json::EscapeString(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonTest, ParseRejectsMalformedInputWithOffset) {
  struct Case {
    const char* text;
  };
  const Case cases[] = {
      {""},            // empty input
      {"{"},           // unterminated object
      {"[1,2,"},       // unterminated array
      {"{\"a\" 1}"},   // missing colon
      {"[1] trailing"},  // trailing garbage
      {"{'a':1}"},     // single quotes
      {"[01]"},        // leading zero
      {"nan"},
      {"\"unterminated"},
  };
  for (const Case& c : cases) {
    Json out;
    std::string error;
    const bool ok = Json::Parse(c.text, &out, &error);
    EXPECT_FALSE(ok) << "input: " << c.text;
    EXPECT_FALSE(error.empty()) << "input: " << c.text;
  }
}

TEST(JsonTest, ParseRejectsNonJsonNumbers) {
  // strtod-style readers take most of these (or a prefix of them); strict
  // JSON accepts none.
  for (const char* text : {"0x10", "-infinity", "-nan", "1e999", "-1e999", "1e-400",
                           "{\"a\":0x1F}", "+5", ".5", "5.", "1e", "1e+", "-", "[-]", "inf"}) {
    Json out;
    std::string error;
    EXPECT_FALSE(Json::Parse(text, &out, &error)) << "input: " << text;
    EXPECT_FALSE(error.empty()) << "input: " << text;
  }
}

TEST(JsonTest, ParseAcceptsStrictNumberForms) {
  const std::pair<const char*, double> cases[] = {
      {"0", 0.0},          {"-0", 0.0},        {"7", 7.0},           {"-12", -12.0},
      {"0.5", 0.5},        {"-2.5e1", -25.0},  {"1E3", 1000.0},      {"1e+2", 100.0},
      {"25e-1", 2.5},      {"100000", 1e5},    {"1e308", 1e308},     {"4.9e-324", 4.9e-324},
  };
  for (const auto& [text, expected] : cases) {
    Json out;
    std::string error;
    ASSERT_TRUE(Json::Parse(text, &out, &error)) << text << ": " << error;
    ASSERT_TRUE(out.is_number()) << text;
    EXPECT_EQ(out.number(), expected) << text;
  }
}

TEST(JsonTest, ParseReportsByteOffset) {
  Json out;
  std::string error;
  ASSERT_FALSE(Json::Parse(R"({"ok":true,broken})", &out, &error));
  // The offset of the first bad byte (the 'b' at index 11) should appear in
  // the message so operators can locate the problem in large files.
  EXPECT_NE(error.find("11"), std::string::npos) << error;
}

TEST(JsonTest, ParseRejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  Json out;
  std::string error;
  EXPECT_FALSE(Json::Parse(deep, &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, FormatJsonNumberShortestRoundTrip) {
  EXPECT_EQ(FormatJsonNumber(0.0), "0");
  EXPECT_EQ(FormatJsonNumber(-0.0), "0");
  EXPECT_EQ(FormatJsonNumber(1.0), "1");
  EXPECT_EQ(FormatJsonNumber(0.5), "0.5");
  EXPECT_EQ(FormatJsonNumber(3.0), "3");
  // Shortest form that round-trips, not a fixed precision.
  EXPECT_EQ(FormatJsonNumber(0.1), "0.1");
  EXPECT_EQ(FormatJsonNumber(0.1 + 0.2), "0.30000000000000004");
}

TEST(JsonTest, FormatJsonNumberWholeValuesAsIntegers) {
  // Ids and counts print as plain integers below 1e15; shortest round-trip
  // form alone would render these with an exponent ("1e+05").
  EXPECT_EQ(FormatJsonNumber(1e5), "100000");
  EXPECT_EQ(FormatJsonNumber(1e6), "1000000");
  EXPECT_EQ(FormatJsonNumber(-3e7), "-30000000");
  EXPECT_EQ(FormatJsonNumber(999999999999999.0), "999999999999999");
  // At and beyond 1e15 the shortest form takes over again.
  EXPECT_EQ(FormatJsonNumber(1e15), "1e+15");
  EXPECT_EQ(FormatJsonNumber(2.5e20), "2.5e+20");
  EXPECT_EQ(FormatJsonNumber(1234567.5), "1234567.5");
}

}  // namespace
}  // namespace crius
