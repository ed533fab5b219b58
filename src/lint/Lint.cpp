//===- lint/Lint.cpp - Findings, reports and pinned schedules -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "lint/Witness.h"

#include <sstream>

using namespace cpr;

std::string LintFinding::str() const {
  std::string Out = diagSeverityName(Severity);
  Out += " [";
  Out += diagCodeName(Code);
  Out += "]";
  if (!Block.empty()) {
    Out += " @";
    Out += Block;
  }
  if (Op != InvalidOpId)
    Out += " op %" + std::to_string(Op);
  Out += ": ";
  Out += Message;
  return Out;
}

Diagnostic LintFinding::toDiagnostic() const {
  Diagnostic D;
  D.Severity = Severity;
  D.Code = Code;
  D.Site = "lint." + Check;
  D.Message = Message;
  if (!Block.empty()) {
    D.Message += " in block @" + Block;
    if (Op != InvalidOpId)
      D.Message += " at op %" + std::to_string(Op);
  }
  return D;
}

unsigned LintResult::countAtLeast(DiagSeverity S) const {
  unsigned N = 0;
  for (const LintFinding &F : Findings)
    if (static_cast<unsigned>(F.Severity) >= static_cast<unsigned>(S))
      ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

void cpr::reportLintFindings(const LintResult &R, DiagnosticEngine &Diags) {
  for (const LintFinding &F : R.Findings)
    Diags.report(F.toDiagnostic());
}

JSONValue cpr::lintResultToJSON(const std::string &FunctionName,
                                const LintResult &R) {
  JSONValue Root = JSONValue::object();
  Root.set("function", JSONValue::str(FunctionName));
  JSONValue Checks = JSONValue::array();
  for (const std::string &C : R.ChecksRun)
    Checks.append(JSONValue::str(C));
  Root.set("checks", std::move(Checks));
  JSONValue Findings = JSONValue::array();
  for (const LintFinding &F : R.Findings) {
    JSONValue J = JSONValue::object();
    J.set("check", JSONValue::str(F.Check));
    J.set("severity", JSONValue::str(diagSeverityName(F.Severity)));
    J.set("code", JSONValue::str(diagCodeName(F.Code)));
    J.set("block", JSONValue::str(F.Block));
    J.set("op", F.Op == InvalidOpId
                    ? JSONValue::null()
                    : JSONValue::number(static_cast<double>(F.Op)));
    J.set("op_index", F.OpIndex < 0
                          ? JSONValue::null()
                          : JSONValue::number(static_cast<double>(F.OpIndex)));
    J.set("message", JSONValue::str(F.Message));
    J.set("witness",
          F.Witness ? witnessToJSON(*F.Witness) : JSONValue::null());
    Findings.append(std::move(J));
  }
  Root.set("findings", std::move(Findings));
  JSONValue Counts = JSONValue::object();
  unsigned NRemark = 0, NWarning = 0, NError = 0;
  for (const LintFinding &F : R.Findings) {
    if (F.Severity == DiagSeverity::Remark)
      ++NRemark;
    else if (F.Severity == DiagSeverity::Warning)
      ++NWarning;
    else
      ++NError;
  }
  Counts.set("remark", JSONValue::number(NRemark));
  Counts.set("warning", JSONValue::number(NWarning));
  Counts.set("error", JSONValue::number(NError));
  Root.set("counts", std::move(Counts));
  return Root;
}

Status cpr::lintStatus(const LintResult &R, bool Werror) {
  DiagSeverity Floor = Werror ? DiagSeverity::Warning : DiagSeverity::Error;
  for (const LintFinding &F : R.Findings)
    if (static_cast<unsigned>(F.Severity) >= static_cast<unsigned>(Floor)) {
      Diagnostic D = F.toDiagnostic();
      D.Severity = DiagSeverity::Error;
      return Status::failure(std::move(D));
    }
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Sidecar schedule directives
//===----------------------------------------------------------------------===//

Status cpr::parseInjectedSchedules(const std::string &Text,
                                   std::vector<InjectedSchedule> &Out) {
  std::istringstream In(Text);
  std::string Line;
  const std::string Tag = "; lint-schedule(";
  while (std::getline(In, Line)) {
    size_t Pos = Line.find(Tag);
    if (Pos == std::string::npos)
      continue;
    std::string Rest = Line.substr(Pos + Tag.size());
    size_t Close = Rest.find(')');
    size_t At = Rest.find('@');
    size_t Colon = Rest.find(':');
    if (Close == std::string::npos || At == std::string::npos ||
        Colon == std::string::npos || At < Close || Colon < At)
      return Status::error(DiagCode::ParseError,
                           "malformed lint-schedule directive: " + Line);
    InjectedSchedule S;
    S.MachineName = Rest.substr(0, Close);
    size_t Comma = S.MachineName.find(',');
    if (Comma != std::string::npos) {
      std::string Attr = S.MachineName.substr(Comma + 1);
      S.MachineName.resize(Comma);
      const std::string FetchKey = "fetch=";
      if (Attr.compare(0, FetchKey.size(), FetchKey) != 0)
        return Status::error(DiagCode::ParseError,
                             "unknown lint-schedule attribute '" + Attr +
                                 "' (expected fetch=<N>): " + Line);
      std::istringstream Fetch(Attr.substr(FetchKey.size()));
      if (!(Fetch >> S.FetchWidth) || !Fetch.eof() || S.FetchWidth <= 0)
        return Status::error(DiagCode::ParseError,
                             "malformed fetch width in lint-schedule "
                             "directive: " +
                                 Line);
    }
    S.BlockName = Rest.substr(At + 1, Colon - At - 1);
    while (!S.BlockName.empty() && S.BlockName.back() == ' ')
      S.BlockName.pop_back();
    std::istringstream Cycles(Rest.substr(Colon + 1));
    int C;
    while (Cycles >> C)
      S.Cycles.push_back(C);
    if (!Cycles.eof())
      return Status::error(DiagCode::ParseError,
                           "non-integer cycle in lint-schedule directive: " +
                               Line);
    Out.push_back(std::move(S));
  }
  return Status::success();
}
