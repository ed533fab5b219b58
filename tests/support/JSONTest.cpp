//===- tests/support/JSONTest.cpp - Strict JSON parser tests ---------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The parser sits on the cprd trust boundary, so the hardening rules are
// contractual: duplicate object keys and unterminated strings are
// rejected with a recoverable DiagCode::ParseError (last-key-wins would
// silently discard attacker-controlled data; an abort would kill the
// daemon), and every failure carries the byte offset.
//
//===----------------------------------------------------------------------===//

#include "support/JSON.h"

#include "gtest/gtest.h"

using namespace cpr;

namespace {

void expectParseError(const std::string &Text) {
  JSONParseResult R = parseJSON(Text);
  ASSERT_FALSE(static_cast<bool>(R)) << Text;
  EXPECT_EQ(R.Code, DiagCode::ParseError) << Text;
  EXPECT_FALSE(R.Error.empty()) << Text;
}

TEST(JSON, RoundTripsDocuments) {
  JSONParseResult R = parseJSON(
      "{\"a\":1,\"b\":\"two\",\"c\":[true,false,null],\"d\":{\"e\":2.5}}");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  EXPECT_DOUBLE_EQ(R.Value.find("a")->getNumber(), 1.0);
  EXPECT_EQ(R.Value.find("b")->getString(), "two");
  EXPECT_EQ(R.Value.find("c")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(R.Value.find("d")->find("e")->getNumber(), 2.5);

  JSONParseResult Again = parseJSON(writeJSON(R.Value));
  ASSERT_TRUE(static_cast<bool>(Again));
  EXPECT_EQ(writeJSON(Again.Value), writeJSON(R.Value));
}

TEST(JSON, WriterEscapesExactlyWhatJSONRequires) {
  // Quotes, backslashes and control characters are escaped wherever they
  // fall in a run; every other byte, high ones included, passes through.
  const std::string S = std::string("a\"b\\c\nd\te\rf") + '\x01' + "g" +
                        '\x1f' + "\xc3\xa9\x7f" + "\n";
  EXPECT_EQ(writeJSON(JSONValue::str(S), false),
            "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001f\xc3\xa9\x7f\\n\"");
  JSONParseResult Back = parseJSON(writeJSON(JSONValue::str(S), false));
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.Error;
  EXPECT_EQ(Back.Value.getString(), S);
  EXPECT_EQ(writeJSON(JSONValue::str(""), false), "\"\"");
  EXPECT_EQ(writeJSON(JSONValue::str("plain"), false), "\"plain\"");
}

TEST(JSON, RejectsDuplicateKeys) {
  expectParseError("{\"k\":1,\"k\":2}");
  expectParseError("{\"a\":{\"x\":1,\"x\":2}}"); // nested objects too
}

TEST(JSON, RejectsUnterminatedStrings) {
  expectParseError("{\"k\":\"open");
  expectParseError("\"never closed");
  expectParseError("{\"k");
}

TEST(JSON, RejectsTrailingGarbage) {
  expectParseError("{\"k\":1} trailing");
  expectParseError("{} {}");
}

TEST(JSON, FailureIsARecoverableDiagnostic) {
  JSONParseResult R = parseJSON("{\"k\":1,\"k\":2}");
  ASSERT_FALSE(static_cast<bool>(R));
  Diagnostic D = R.diagnostic("cprd.frame");
  EXPECT_EQ(D.Severity, DiagSeverity::Error);
  EXPECT_EQ(D.Code, DiagCode::ParseError);
  EXPECT_EQ(D.Site, "cprd.frame");
  EXPECT_FALSE(D.Message.empty());
  EXPECT_FALSE(R.status("cprd.frame").ok());
}

TEST(JSON, OffsetPointsIntoTheDocument) {
  JSONParseResult R = parseJSON("{\"aa\":1,\"aa\":2}");
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_GT(R.Offset, 0u);
  EXPECT_LE(R.Offset, std::string("{\"aa\":1,\"aa\":2}").size());
}

} // namespace
