//===- support/JSON.cpp - Minimal JSON document model ----------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/JSON.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace cpr;

void JSONValue::set(const std::string &Key, JSONValue V) {
  for (auto &M : Members)
    if (M.first == Key) {
      M.second = std::move(V);
      return;
    }
  Members.emplace_back(Key, std::move(V));
}

const JSONValue *JSONValue::find(const std::string &Key) const {
  for (const auto &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

void escapeInto(std::string &Out, const std::string &S) {
  Out += '"';
  // Characters that need no escape are appended a run at a time: request
  // and response frames carry whole programs, and the compile service
  // encodes one per request for its cache key.
  size_t Run = 0;
  for (size_t I = 0, E = S.size(); I != E; ++I) {
    char C = S[I];
    if (static_cast<unsigned char>(C) >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S, Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default: {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    }
    }
  }
  Out.append(S, Run, std::string::npos);
  Out += '"';
}

void numberInto(std::string &Out, double N) {
  char Buf[32];
  if (std::isfinite(N) && N == std::floor(N) && std::fabs(N) < 0x1p53)
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(N));
  else if (std::isfinite(N))
    std::snprintf(Buf, sizeof(Buf), "%.17g", N);
  else
    std::snprintf(Buf, sizeof(Buf), "null"); // JSON has no inf/nan
  Out += Buf;
}

void writeInto(std::string &Out, const JSONValue &V, bool Pretty,
               unsigned Depth) {
  auto Indent = [&](unsigned D) {
    if (Pretty) {
      Out += '\n';
      Out.append(2 * D, ' ');
    }
  };
  switch (V.kind()) {
  case JSONValue::Kind::Null:
    Out += "null";
    break;
  case JSONValue::Kind::Bool:
    Out += V.getBool() ? "true" : "false";
    break;
  case JSONValue::Kind::Number:
    numberInto(Out, V.getNumber());
    break;
  case JSONValue::Kind::String:
    escapeInto(Out, V.getString());
    break;
  case JSONValue::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const JSONValue &E : V.items()) {
      if (!First)
        Out += ',';
      First = false;
      Indent(Depth + 1);
      writeInto(Out, E, Pretty, Depth + 1);
    }
    if (!First)
      Indent(Depth);
    Out += ']';
    break;
  }
  case JSONValue::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &M : V.members()) {
      if (!First)
        Out += ',';
      First = false;
      Indent(Depth + 1);
      escapeInto(Out, M.first);
      Out += Pretty ? ": " : ":";
      writeInto(Out, M.second, Pretty, Depth + 1);
    }
    if (!First)
      Indent(Depth);
    Out += '}';
    break;
  }
  }
}

} // namespace

std::string cpr::writeJSON(const JSONValue &V, bool Pretty) {
  std::string Out;
  writeInto(Out, V, Pretty, 0);
  if (Pretty)
    Out += '\n';
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(const std::string &Text, JSONParseResult &Res)
      : Text(Text), Res(Res) {}

  void run() {
    skipWS();
    Res.Value = parseValue();
    if (!Res.Error.empty())
      return;
    skipWS();
    if (Pos != Text.size())
      fail("trailing characters after document");
  }

private:
  const std::string &Text;
  JSONParseResult &Res;
  size_t Pos = 0;

  void fail(const std::string &Msg) {
    if (Res.Error.empty()) {
      Res.Error = Msg;
      Res.Offset = Pos;
      Res.Code = DiagCode::ParseError;
    }
  }

  void skipWS() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Lit) {
    size_t Len = std::char_traits<char>::length(Lit);
    if (Text.compare(Pos, Len, Lit) == 0) {
      Pos += Len;
      return true;
    }
    return false;
  }

  JSONValue parseValue() {
    if (Pos >= Text.size()) {
      fail("unexpected end of input");
      return JSONValue();
    }
    char C = Text[Pos];
    if (C == '{')
      return parseObject();
    if (C == '[')
      return parseArray();
    if (C == '"')
      return JSONValue::str(parseString());
    if (literal("true"))
      return JSONValue::boolean(true);
    if (literal("false"))
      return JSONValue::boolean(false);
    if (literal("null"))
      return JSONValue::null();
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber();
    fail("unexpected character");
    return JSONValue();
  }

  JSONValue parseObject() {
    JSONValue V = JSONValue::object();
    consume('{');
    skipWS();
    if (consume('}'))
      return V;
    for (;;) {
      skipWS();
      if (Pos >= Text.size() || Text[Pos] != '"') {
        fail("expected object key string");
        return V;
      }
      std::string Key = parseString();
      if (!Res.Error.empty())
        return V;
      if (V.find(Key)) {
        fail("duplicate object key \"" + Key + "\"");
        return V;
      }
      skipWS();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return V;
      }
      skipWS();
      V.set(Key, parseValue());
      if (!Res.Error.empty())
        return V;
      skipWS();
      if (consume(','))
        continue;
      if (consume('}'))
        return V;
      fail("expected ',' or '}' in object");
      return V;
    }
  }

  JSONValue parseArray() {
    JSONValue V = JSONValue::array();
    consume('[');
    skipWS();
    if (consume(']'))
      return V;
    for (;;) {
      skipWS();
      V.append(parseValue());
      if (!Res.Error.empty())
        return V;
      skipWS();
      if (consume(','))
        continue;
      if (consume(']'))
        return V;
      fail("expected ',' or ']' in array");
      return V;
    }
  }

  std::string parseString() {
    std::string Out;
    consume('"');
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return Out;
      if (C == '\\') {
        if (Pos >= Text.size())
          break;
        char E = Text[Pos++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'r':
          Out += '\r';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (Pos + 4 > Text.size()) {
            fail("truncated \\u escape");
            return Out;
          }
          unsigned Code = 0;
          for (int I = 0; I < 4; ++I) {
            char H = Text[Pos++];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= static_cast<unsigned>(H - 'A' + 10);
            else {
              fail("bad hex digit in \\u escape");
              return Out;
            }
          }
          // The stats documents only ever escape control characters;
          // encode the code point as UTF-8 (BMP only, no surrogates).
          if (Code < 0x80) {
            Out += static_cast<char>(Code);
          } else if (Code < 0x800) {
            Out += static_cast<char>(0xC0 | (Code >> 6));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (Code >> 12));
            Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
          return Out;
        }
      } else {
        Out += C;
      }
    }
    fail("unterminated string");
    return Out;
  }

  JSONValue parseNumber() {
    size_t Start = Pos;
    if (consume('-')) {
    }
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    std::string Num = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    double V = std::strtod(Num.c_str(), &End);
    if (End == Num.c_str() || *End != '\0') {
      Pos = Start;
      fail("malformed number");
      return JSONValue();
    }
    return JSONValue::number(V);
  }
};

} // namespace

JSONParseResult cpr::parseJSON(const std::string &Text) {
  JSONParseResult Res;
  Parser P(Text, Res);
  P.run();
  return Res;
}

Diagnostic JSONParseResult::diagnostic(std::string Site) const {
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Code = Code == DiagCode::None ? DiagCode::ParseError : Code;
  D.Message = "JSON: " + Error + " at offset " + std::to_string(Offset);
  D.Site = std::move(Site);
  return D;
}

Status JSONParseResult::status(std::string Site) const {
  if (Error.empty())
    return Status::success();
  return Status::failure(diagnostic(std::move(Site)));
}
