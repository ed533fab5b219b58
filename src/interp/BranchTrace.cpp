//===- interp/BranchTrace.cpp - Dynamic branch event traces ---------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/BranchTrace.h"

#include <cstdio>
#include <limits>
#include <sstream>

using namespace cpr;

std::string cpr::serializeBranchTrace(const BranchTrace &T) {
  std::string Out = "btrace v1\n";
  char Line[96];
  for (size_t I = 0, E = T.size(); I != E;) {
    const BranchEvent &Ev = T.event(I);
    size_t Run = 1;
    while (I + Run != E && T.event(I + Run) == Ev)
      ++Run;
    std::snprintf(Line, sizeof(Line), "ev %u %c %zu\n", Ev.Op,
                  Ev.Taken ? 't' : 'n', Run);
    Out += Line;
    I += Run;
  }
  if (T.hasTerminal()) {
    std::snprintf(Line, sizeof(Line), "term %u\n", T.terminalOp());
    Out += Line;
  }
  return Out;
}

Expected<BranchTrace> cpr::tryParseBranchTrace(const std::string &Text) {
  BranchTrace Trace;
  std::istringstream In(Text);
  std::string LineStr;
  unsigned LineNo = 0;
  bool SawHeader = false;
  auto fail = [&](const std::string &Msg) -> Diagnostic {
    return Diagnostic{DiagSeverity::Error, DiagCode::ParseError,
                      "line " + std::to_string(LineNo) + ": " + Msg,
                      "btrace", LineNo};
  };
  // Numeric fields must fit an OpId: the serializer never writes wider
  // ids, so anything larger (including stream-wrapped negatives) is
  // malformed rather than silently truncated.
  auto validId = [](uint64_t Id) {
    return Id <= std::numeric_limits<OpId>::max();
  };
  while (std::getline(In, LineStr)) {
    ++LineNo;
    size_t Hash = LineStr.find('#');
    if (Hash != std::string::npos)
      LineStr.resize(Hash);
    std::istringstream L(LineStr);
    std::string Kind;
    if (!(L >> Kind))
      continue;
    std::string Extra;
    if (!SawHeader) {
      std::string Version;
      if (Kind != "btrace" || !(L >> Version) || Version != "v1" ||
          L >> Extra)
        return fail("expected 'btrace v1' header");
      SawHeader = true;
      continue;
    }
    if (Kind == "ev") {
      uint64_t Id, Count;
      std::string Dir;
      if (!(L >> Id >> Dir >> Count) || (Dir != "t" && Dir != "n") ||
          Count == 0 || (L >> Extra))
        return fail("bad ev record");
      if (!validId(Id))
        return fail("ev id " + std::to_string(Id) + " is out of range");
      if (Count > MaxTraceRunLength)
        return fail("ev run length " + std::to_string(Count) +
                    " exceeds the limit of " +
                    std::to_string(MaxTraceRunLength));
      if (Trace.hasTerminal())
        return fail("ev record after the term marker");
      for (uint64_t I = 0; I != Count; ++I)
        Trace.record(static_cast<OpId>(Id), Dir == "t");
    } else if (Kind == "term") {
      uint64_t Id;
      if (!(L >> Id) || (L >> Extra))
        return fail("bad term record");
      if (!validId(Id))
        return fail("term id " + std::to_string(Id) + " is out of range");
      if (Trace.hasTerminal())
        return fail("duplicate term record");
      Trace.markTerminal(static_cast<OpId>(Id));
    } else {
      return fail("unknown record '" + Kind + "'");
    }
  }
  if (!SawHeader)
    return Diagnostic{DiagSeverity::Error, DiagCode::ParseError,
                      "missing 'btrace v1' header", "btrace", 0};
  return Trace;
}
