//===- fuzz/Corpus.cpp - Fuzz-program serialization and corpora -----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace cpr;

std::string cpr::serializeFuzzProgram(const KernelProgram &P) {
  std::ostringstream Out;
  Out << FuzzProgramMagic << "\n";
  if (!P.Description.empty())
    Out << "; desc " << P.Description << "\n";
  for (const RegBinding &B : P.InitRegs)
    Out << "; reg " << regClassPrefix(B.R.getClass()) << B.R.getId() << "="
        << B.Value << "\n";
  for (const auto &[Addr, Val] : P.InitMem.sortedCells())
    Out << "; mem " << Addr << "=" << Val << "\n";
  Out << printFunction(*P.Func);
  return Out.str();
}

namespace {

/// Splits "lhs=rhs"; returns false when '=' is absent.
bool splitAssign(const std::string &S, std::string &Lhs, std::string &Rhs) {
  size_t Eq = S.find('=');
  if (Eq == std::string::npos)
    return false;
  Lhs = S.substr(0, Eq);
  Rhs = S.substr(Eq + 1);
  return !Lhs.empty() && !Rhs.empty();
}

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\r");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r");
  return S.substr(B, E - B + 1);
}

} // namespace

bool cpr::parseRegBinding(const std::string &Spec, RegBinding &Out) {
  // The name is plain digits up to MaxRegId after the class letter, with
  // no pretty names.
  std::string Name, Value;
  if (!splitAssign(Spec, Name, Value) || Name.size() < 2)
    return false;
  RegClass RC;
  switch (Name[0]) {
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
    return false;
  }
  uint32_t Id;
  if (!parseRegId(std::string_view(Name).substr(1), Id))
    return false;
  Out.R = Reg(RC, Id);
  Out.Value = std::strtoll(Value.c_str(), nullptr, 10);
  return true;
}

FuzzParseResult cpr::parseFuzzProgram(const std::string &Text) {
  FuzzParseResult Res;
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    std::string T = trim(Line);
    if (T.empty())
      continue;
    if (T[0] != ';')
      break; // IR starts; directives only appear above it.
    std::string Body = trim(T.substr(1));
    std::istringstream Dir(Body);
    std::string Kw;
    Dir >> Kw;
    if (Kw == "reg") {
      std::string Spec;
      Dir >> Spec;
      RegBinding B;
      if (!parseRegBinding(Spec, B)) {
        Res.Error = "line " + std::to_string(LineNo) +
                    ": malformed reg directive: " + Body;
        return Res;
      }
      Res.Program.InitRegs.push_back(B);
    } else if (Kw == "mem") {
      std::string Spec, Lhs, Rhs;
      Dir >> Spec;
      if (!splitAssign(Spec, Lhs, Rhs)) {
        Res.Error = "line " + std::to_string(LineNo) +
                    ": malformed mem directive: " + Body;
        return Res;
      }
      Res.Program.InitMem.store(std::strtoll(Lhs.c_str(), nullptr, 10),
                                std::strtoll(Rhs.c_str(), nullptr, 10));
    } else if (Kw == "desc") {
      std::string Rest;
      std::getline(Dir, Rest);
      Res.Program.Description = trim(Rest);
    }
    // Unknown directives (including the magic) are ignored: forward
    // compatibility, and plain comments stay legal.
  }
  ParseResult PR = parseFunction(Text);
  if (!PR) {
    Res.Error = "line " + std::to_string(PR.Line) + ": " + PR.Error;
    return Res;
  }
  Res.Program.Func = std::move(PR.Func);
  return Res;
}

FuzzParseResult cpr::loadFuzzProgramFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    FuzzParseResult Res;
    Res.Error = "cannot open " + Path;
    return Res;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  FuzzParseResult Res = parseFuzzProgram(Buf.str());
  if (!Res)
    Res.Error = Path + ": " + Res.Error;
  return Res;
}

bool cpr::writeFuzzProgramFile(const KernelProgram &P, const std::string &Path,
                               std::string *Error) {
  std::ofstream Out(Path);
  if (!Out) {
    if (Error)
      *Error = "cannot open " + Path + " for writing";
    return false;
  }
  Out << serializeFuzzProgram(P);
  Out.flush();
  if (!Out) {
    if (Error)
      *Error = "write to " + Path + " failed";
    return false;
  }
  return true;
}

std::vector<std::string> cpr::listCorpusFiles(const std::string &Dir) {
  std::vector<std::string> Files;
  std::error_code EC;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, EC)) {
    if (!Entry.is_regular_file())
      continue;
    if (Entry.path().extension() == ".ir")
      Files.push_back(Entry.path().string());
  }
  std::sort(Files.begin(), Files.end());
  return Files;
}
