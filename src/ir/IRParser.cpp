//===- ir/IRParser.cpp - Textual IR input ---------------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "ir/IRPrinter.h"
#include "support/Error.h"

#include <cctype>
#include <cstdlib>

using namespace cpr;

namespace {

/// Token kinds of the IR text format.
enum class Tok : uint8_t {
  Ident,   // func, block, add, Loop, r21, T, m1 ...
  Integer, // 42, -7
  At,      // @
  LBrace,
  RBrace,
  LParen,
  RParen,
  Comma,
  Colon,
  Dot,
  Equal,
  Eof,
};

struct Token {
  Tok Kind;
  std::string Text;
  unsigned Line;
};

/// Hand-written tokenizer; ';' starts a comment until end of line.
class Lexer {
public:
  explicit Lexer(const std::string &Text) : Text(Text) {}

  Token next() {
    skipWhitespaceAndComments();
    if (Pos >= Text.size())
      return {Tok::Eof, "", Line};
    char C = Text[Pos];
    unsigned StartLine = Line;
    auto Single = [&](Tok K) {
      ++Pos;
      return Token{K, std::string(1, C), StartLine};
    };
    switch (C) {
    case '@':
      return Single(Tok::At);
    case '{':
      return Single(Tok::LBrace);
    case '}':
      return Single(Tok::RBrace);
    case '(':
      return Single(Tok::LParen);
    case ')':
      return Single(Tok::RParen);
    case ',':
      return Single(Tok::Comma);
    case ':':
      return Single(Tok::Colon);
    case '.':
      return Single(Tok::Dot);
    case '=':
      return Single(Tok::Equal);
    default:
      break;
    }
    if (C == '-' || std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = Pos;
      ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
      return {Tok::Integer, Text.substr(Start, Pos - Start), StartLine};
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Text.size() &&
             (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
              Text[Pos] == '_'))
        ++Pos;
      return {Tok::Ident, Text.substr(Start, Pos - Start), StartLine};
    }
    return {Tok::Eof, std::string("<bad char '") + C + "'>", StartLine};
  }

private:
  void skipWhitespaceAndComments() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == ';') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  const std::string &Text;
  size_t Pos = 0;
  unsigned Line = 1;
};

/// Recursive-descent parser over the token stream.
class Parser {
public:
  explicit Parser(const std::string &Text) : Lex(Text) { advance(); }

  ParseResult run() {
    parseFunctionBody();
    ParseResult R;
    if (!ErrorMsg.empty()) {
      R.Error = ErrorMsg;
      R.Line = ErrorLine;
      return R;
    }
    R.Func = std::move(F);
    return R;
  }

private:
  void advance() { Cur = Lex.next(); }

  bool failed() const { return !ErrorMsg.empty(); }

  void error(const std::string &Msg) {
    if (ErrorMsg.empty()) {
      ErrorMsg = Msg + " (got '" + Cur.Text + "')";
      ErrorLine = Cur.Line;
    }
  }

  bool expect(Tok K, const char *What) {
    if (failed())
      return false;
    if (Cur.Kind != K) {
      error(std::string("expected ") + What);
      return false;
    }
    advance();
    return true;
  }

  std::string expectIdent(const char *What) {
    if (Cur.Kind != Tok::Ident) {
      error(std::string("expected ") + What);
      return "";
    }
    std::string S = Cur.Text;
    advance();
    return S;
  }

  /// The error for register name \p S whose digits exceed MaxRegId.
  static std::string regIdRangeError(const std::string &S) {
    return "register id out of range in '" + S + "' (the largest is " +
           std::to_string(MaxRegId) + ")";
  }

  /// Parses a register name: T, r21, p61, f3, b41.
  Reg parseReg() {
    if (Cur.Kind != Tok::Ident) {
      error("expected register");
      return Reg();
    }
    const std::string &S = Cur.Text;
    Reg R;
    if (S == "T") {
      R = Reg::truePred();
    } else {
      RegClass RC;
      switch (S[0]) {
      case 'r':
        RC = RegClass::GPR;
        break;
      case 'f':
        RC = RegClass::FPR;
        break;
      case 'p':
        RC = RegClass::PR;
        break;
      case 'b':
        RC = RegClass::BTR;
        break;
      default:
        error("expected register");
        return Reg();
      }
      if (S.size() < 2) {
        error("register needs a numeric id");
        return Reg();
      }
      for (size_t I = 1; I < S.size(); ++I)
        if (!std::isdigit(static_cast<unsigned char>(S[I]))) {
          error("register needs a numeric id");
          return Reg();
        }
      uint32_t Id;
      if (!parseRegId(std::string_view(S).substr(1), Id)) {
        error(regIdRangeError(S));
        return Reg();
      }
      R = Reg(RC, Id);
    }
    advance();
    F->reserveRegId(R);
    return R;
  }

  void parseFunctionBody() {
    if (Cur.Kind == Tok::Ident && Cur.Text == "func")
      advance();
    else {
      error("expected 'func'");
      return;
    }
    expect(Tok::At, "'@'");
    std::string Name = expectIdent("function name");
    if (failed())
      return;
    F = std::make_unique<Function>(Name);
    expect(Tok::LBrace, "'{'");

    // Blocks were pre-collected by run()'s caller path; do it lazily here
    // by rescanning the raw text is not possible, so collectBlocks was
    // invoked from the constructor path instead. See parseFunction().
    for (const std::string &BN : PendingBlocks)
      if (!F->blockByName(BN))
        F->addBlock(BN);

    // Optional observable list.
    if (Cur.Kind == Tok::Ident && Cur.Text == "observable") {
      advance();
      while (!failed()) {
        Reg R = parseReg();
        if (failed())
          return;
        F->observableRegs().push_back(R);
        if (Cur.Kind != Tok::Comma)
          break;
        advance();
      }
    }

    Block *CurBlock = nullptr;
    while (!failed() && Cur.Kind != Tok::RBrace && Cur.Kind != Tok::Eof) {
      if (Cur.Kind == Tok::Ident && Cur.Text == "block") {
        advance();
        expect(Tok::At, "'@'");
        std::string BName = expectIdent("block name");
        expect(Tok::Colon, "':'");
        if (failed())
          return;
        CurBlock = F->blockByName(BName);
        if (!CurBlock) {
          error("unknown block @" + BName);
          return;
        }
        if (Cur.Kind == Tok::Ident && Cur.Text == "compensation") {
          CurBlock->setCompensation(true);
          advance();
        }
        continue;
      }
      if (!CurBlock) {
        error("operation outside any block");
        return;
      }
      parseOperation(*CurBlock);
    }
    expect(Tok::RBrace, "'}'");
  }

  /// Parses "[defs =] mnemonic[.decor](operands) [if guard]".
  void parseOperation(Block &B) {
    std::vector<DefSlot> Defs;
    std::vector<std::string> Mnemonic; // dot-separated parts
    // Lookahead problem: "r21 = add(...)" vs "halt". Parse first ident,
    // then decide by the following token.
    std::string First = expectIdent("operation");
    if (failed())
      return;

    bool HasDefs = false;
    if (Cur.Kind == Tok::Equal || Cur.Kind == Tok::Comma ||
        Cur.Kind == Tok::Colon)
      HasDefs = true;

    if (HasDefs) {
      // Re-interpret First as the first destination register.
      Reg D = identToReg(First);
      if (failed())
        return;
      CmppAction Act = CmppAction::None;
      if (Cur.Kind == Tok::Colon) {
        advance();
        std::string ActName = expectIdent("action specifier");
        auto A = parseCmppAction(ActName.c_str());
        if (!A) {
          error("unknown action '" + ActName + "'");
          return;
        }
        Act = *A;
      }
      Defs.push_back(DefSlot{D, Act});
      while (Cur.Kind == Tok::Comma) {
        advance();
        Reg D2 = parseReg();
        if (failed())
          return;
        CmppAction Act2 = CmppAction::None;
        if (Cur.Kind == Tok::Colon) {
          advance();
          std::string ActName = expectIdent("action specifier");
          auto A = parseCmppAction(ActName.c_str());
          if (!A) {
            error("unknown action '" + ActName + "'");
            return;
          }
          Act2 = *A;
        }
        Defs.push_back(DefSlot{D2, Act2});
      }
      expect(Tok::Equal, "'='");
      First = expectIdent("operation mnemonic");
      if (failed())
        return;
    }

    Mnemonic.push_back(First);
    while (Cur.Kind == Tok::Dot) {
      advance();
      Mnemonic.push_back(expectIdent("mnemonic suffix"));
      if (failed())
        return;
    }

    auto Opc = parseOpcode(Mnemonic[0].c_str());
    if (!Opc) {
      error("unknown opcode '" + Mnemonic[0] + "'");
      return;
    }

    Operation Op = F->makeOp(*Opc);
    for (const DefSlot &D : Defs)
      Op.addDef(D.R, D.Act);

    // Decorations: cmpp condition, memory alias class.
    for (size_t I = 1; I < Mnemonic.size(); ++I) {
      const std::string &Part = Mnemonic[I];
      if (auto C = parseCompareCond(Part.c_str())) {
        Op.setCond(*C);
        continue;
      }
      if (Part.size() >= 2 && Part[0] == 'm') {
        Op.setAliasClass(
            static_cast<uint8_t>(std::strtoul(Part.c_str() + 1, nullptr, 10)));
        continue;
      }
      error("unknown mnemonic suffix '" + Part + "'");
      return;
    }

    // Operand list.
    if (Cur.Kind == Tok::LParen) {
      advance();
      if (Cur.Kind != Tok::RParen) {
        while (!failed()) {
          parseSrcOperand(Op);
          if (Cur.Kind != Tok::Comma)
            break;
          advance();
        }
      }
      expect(Tok::RParen, "')'");
    }

    // Optional guard.
    if (Cur.Kind == Tok::Ident && Cur.Text == "if") {
      advance();
      Reg G = parseReg();
      if (failed())
        return;
      if (!G.isPred()) {
        error("guard must be a predicate register");
        return;
      }
      Op.setGuard(G);
      if (Cur.Kind == Tok::Ident && Cur.Text == "frp") {
        Op.setFrpGuard(true);
        advance();
      }
    }
    if (!failed())
      B.ops().push_back(std::move(Op));
  }

  void parseSrcOperand(Operation &Op) {
    if (Cur.Kind == Tok::Integer) {
      Op.addSrc(Operand::imm(std::strtoll(Cur.Text.c_str(), nullptr, 10)));
      advance();
      return;
    }
    if (Cur.Kind == Tok::At) {
      advance();
      std::string Name = expectIdent("block label");
      if (failed())
        return;
      Block *Target = F->blockByName(Name);
      if (!Target) {
        error("unknown block @" + Name);
        return;
      }
      Op.addSrc(Operand::label(Target->getId()));
      return;
    }
    Reg R = parseReg();
    if (!failed())
      Op.addSrc(Operand::reg(R));
  }

  /// Converts an already-consumed identifier to a register.
  Reg identToReg(const std::string &S) {
    if (S == "T")
      return Reg::truePred();
    if (S.size() < 2) {
      error("expected register, got '" + S + "'");
      return Reg();
    }
    RegClass RC;
    switch (S[0]) {
    case 'r':
      RC = RegClass::GPR;
      break;
    case 'f':
      RC = RegClass::FPR;
      break;
    case 'p':
      RC = RegClass::PR;
      break;
    case 'b':
      RC = RegClass::BTR;
      break;
    default:
      error("expected register, got '" + S + "'");
      return Reg();
    }
    for (size_t I = 1; I < S.size(); ++I)
      if (!std::isdigit(static_cast<unsigned char>(S[I]))) {
        error("expected register, got '" + S + "'");
        return Reg();
      }
    uint32_t Id;
    if (!parseRegId(std::string_view(S).substr(1), Id)) {
      error(regIdRangeError(S));
      return Reg();
    }
    Reg R(RC, Id);
    F->reserveRegId(R);
    return R;
  }

public:
  /// Block names discovered by a pre-scan, applied when F is created.
  std::vector<std::string> PendingBlocks;

private:
  Lexer Lex;
  Token Cur{Tok::Eof, "", 0};
  std::unique_ptr<Function> F;
  std::string ErrorMsg;
  unsigned ErrorLine = 0;
};

} // namespace

ParseResult cpr::parseFunction(const std::string &Text) {
  // Pre-scan for block declarations so labels can reference blocks forward.
  Lexer Pre(Text);
  std::vector<std::string> BlockNames;
  Token T = Pre.next();
  while (T.Kind != Tok::Eof) {
    if (T.Kind == Tok::Ident && T.Text == "block") {
      Token AtTok = Pre.next();
      Token NameTok = Pre.next();
      if (AtTok.Kind == Tok::At && NameTok.Kind == Tok::Ident)
        BlockNames.push_back(NameTok.Text);
      T = Pre.next();
      continue;
    }
    T = Pre.next();
  }
  for (size_t I = 0; I < BlockNames.size(); ++I)
    for (size_t J = I + 1; J < BlockNames.size(); ++J)
      if (BlockNames[I] == BlockNames[J]) {
        ParseResult R;
        R.Error = "duplicate block @" + BlockNames[I];
        R.Line = 1;
        return R;
      }

  Parser P(Text);
  P.PendingBlocks = std::move(BlockNames);
  return P.run();
}

std::unique_ptr<Function> cpr::parseFunctionOrDie(const std::string &Text) {
  ParseResult R = parseFunction(Text);
  if (!R)
    reportFatalError("IR parse error at line " + std::to_string(R.Line) +
                     ": " + R.Error);
  return std::move(R.Func);
}
