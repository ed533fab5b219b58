//===- serve/Protocol.cpp - The cprd-v1 wire protocol ----------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/JSON.h"

#include <cmath>
#include <limits>

using namespace cpr;
using namespace cpr::serve;

namespace {

/// Registered `cmd` values. One row per RequestKind; decode, encode and
/// the unknown-command diagnostic all read this table so they can never
/// drift apart.
struct CommandRow {
  const char *Name;
  RequestKind Kind;
};
const CommandRow Commands[] = {
    {"compile", RequestKind::Compile},
    {"ping", RequestKind::Ping},
    {"stats", RequestKind::Stats},
};

Diagnostic frameError(std::string Msg) {
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Code = DiagCode::ParseError;
  D.Message = std::move(Msg);
  D.Site = "cprd.frame";
  return D;
}

/// Type-checked field extraction for the strict request decoder.
bool wantString(const JSONValue &V, const std::string &Key, std::string &Out,
                std::string &Err) {
  if (!V.isString()) {
    Err = "field \"" + Key + "\" must be a string";
    return false;
  }
  Out = V.getString();
  return true;
}

bool wantNumber(const JSONValue &V, const std::string &Key, double &Out,
                std::string &Err) {
  if (!V.isNumber()) {
    Err = "field \"" + Key + "\" must be a number";
    return false;
  }
  Out = V.getNumber();
  return true;
}

/// An unsigned integer field: a whole number that fits \p T. A negative,
/// fractional or too-large value is rejected, where a cast would wrap,
/// truncate or be undefined.
template <typename T>
bool wantUnsigned(const JSONValue &V, const std::string &Key, T &Out,
                  std::string &Err) {
  double N = 0.0;
  if (!wantNumber(V, Key, N, Err))
    return false;
  // 2^digits is exact as a double, and every double below it fits T.
  const double Limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(N >= 0.0 && N < Limit && N == std::floor(N))) {
    Err = "field \"" + Key + "\" must be an integer in [0, " +
          std::to_string(std::numeric_limits<T>::max()) + "]";
    return false;
  }
  Out = static_cast<T>(N);
  return true;
}

bool wantBool(const JSONValue &V, const std::string &Key, bool &Out,
              std::string &Err) {
  if (V.kind() != JSONValue::Kind::Bool) {
    Err = "field \"" + Key + "\" must be a boolean";
    return false;
  }
  Out = V.getBool();
  return true;
}

/// Applies one "options" member; unknown keys are an error.
bool applyOption(const std::string &Key, const JSONValue &V,
                 CompileRequest &Req, std::string &Err) {
  bool B = false;
  if (Key == "exit_weight")
    return wantNumber(V, Key, Req.CPR.ExitWeightThreshold, Err);
  if (Key == "predict_taken")
    return wantNumber(V, Key, Req.CPR.PredictTakenThreshold, Err);
  if (Key == "max_branches")
    return wantUnsigned(V, Key, Req.CPR.MaxBranchesPerBlock, Err);
  if (Key == "min_branches")
    return wantUnsigned(V, Key, Req.CPR.MinBranchesPerBlock, Err);
  if (Key == "speculation") {
    if (!wantBool(V, Key, B, Err))
      return false;
    Req.CPR.EnablePredicateSpeculation = B;
    return true;
  }
  if (Key == "taken_variation") {
    if (!wantBool(V, Key, B, Err))
      return false;
    Req.CPR.EnableTakenVariation = B;
    return true;
  }
  if (Key == "unroll")
    return wantUnsigned(V, Key, Req.UnrollFactor, Err);
  if (Key == "lint")
    return wantBool(V, Key, Req.Lint, Err);
  if (Key == "region_equivalence")
    return wantBool(V, Key, Req.RegionEquivalence, Err);
  if (Key == "interp_max_steps")
    return wantUnsigned(V, Key, Req.InterpMaxSteps, Err);
  if (Key == "budget_steps")
    return wantUnsigned(V, Key, Req.TransformBudget.MaxSteps, Err);
  if (Key == "budget_wall_ms")
    return wantNumber(V, Key, Req.TransformBudget.MaxWallMs, Err);
  if (Key == "deadline_ms")
    return wantNumber(V, Key, Req.DeadlineMs, Err);
  Err = "unknown option \"" + Key + "\"";
  return false;
}

} // namespace

std::string serve::requestCommandList() {
  std::string Out;
  for (const CommandRow &C : Commands) {
    if (!Out.empty())
      Out += ", ";
    Out += C.Name;
  }
  return Out;
}

WireDiagnostic serve::toWire(const Diagnostic &D) {
  WireDiagnostic W;
  W.Severity = diagSeverityName(D.Severity);
  W.Code = diagCodeName(D.Code);
  W.Message = D.Message;
  W.Site = D.Site;
  return W;
}

CompileResponse serve::errorResponse(std::string Id, const Diagnostic &D) {
  CompileResponse Res;
  Res.Id = std::move(Id);
  Res.Status = "error";
  Res.Diagnostics.push_back(toWire(D));
  return Res;
}

std::string serve::encodeRequest(const CompileRequest &Req) {
  JSONValue V = JSONValue::object();
  V.set("proto", JSONValue::str(ProtocolName));
  if (Req.Kind != RequestKind::Compile)
    for (const CommandRow &C : Commands)
      if (C.Kind == Req.Kind)
        V.set("cmd", JSONValue::str(C.Name));
  V.set("id", JSONValue::str(Req.Id));
  if (Req.Kind == RequestKind::Compile) {
    V.set("ir", JSONValue::str(Req.IR));
    JSONValue O = JSONValue::object();
    O.set("exit_weight", JSONValue::number(Req.CPR.ExitWeightThreshold));
    O.set("predict_taken", JSONValue::number(Req.CPR.PredictTakenThreshold));
    O.set("max_branches", JSONValue::number(Req.CPR.MaxBranchesPerBlock));
    O.set("min_branches", JSONValue::number(Req.CPR.MinBranchesPerBlock));
    O.set("speculation",
          JSONValue::boolean(Req.CPR.EnablePredicateSpeculation));
    O.set("taken_variation", JSONValue::boolean(Req.CPR.EnableTakenVariation));
    O.set("unroll", JSONValue::number(Req.UnrollFactor));
    O.set("lint", JSONValue::boolean(Req.Lint));
    O.set("region_equivalence", JSONValue::boolean(Req.RegionEquivalence));
    O.set("interp_max_steps",
          JSONValue::number(static_cast<double>(Req.InterpMaxSteps)));
    O.set("budget_steps",
          JSONValue::number(static_cast<double>(Req.TransformBudget.MaxSteps)));
    O.set("budget_wall_ms", JSONValue::number(Req.TransformBudget.MaxWallMs));
    // Optional on the wire: omitted when unset so pre-deadline frames
    // (fixtures, recorded corpora) stay byte-identical.
    if (Req.DeadlineMs > 0.0)
      O.set("deadline_ms", JSONValue::number(Req.DeadlineMs));
    V.set("options", O);
  }
  return writeJSON(V, /*Pretty=*/false);
}

Expected<CompileRequest> serve::decodeRequest(const std::string &Line) {
  JSONParseResult P = parseJSON(Line);
  if (!P)
    return P.diagnostic("cprd.frame");
  if (!P.Value.isObject())
    return frameError("frame must be a JSON object");

  CompileRequest Req;
  bool SawProto = false, SawIR = false;
  std::string Err;
  for (const auto &M : P.Value.members()) {
    const std::string &Key = M.first;
    const JSONValue &V = M.second;
    if (Key == "proto") {
      std::string Proto;
      if (!wantString(V, Key, Proto, Err))
        return frameError(std::move(Err));
      if (Proto != ProtocolName)
        return frameError("unsupported protocol \"" + Proto + "\" (want \"" +
                          ProtocolName + "\")");
      SawProto = true;
    } else if (Key == "cmd") {
      std::string Cmd;
      if (!wantString(V, Key, Cmd, Err))
        return frameError(std::move(Err));
      bool Known = false;
      for (const CommandRow &C : Commands)
        if (Cmd == C.Name) {
          Req.Kind = C.Kind;
          Known = true;
          break;
        }
      if (!Known)
        return frameError("unknown cmd \"" + Cmd +
                          "\"; registered commands: " + requestCommandList());
    } else if (Key == "id") {
      if (!wantString(V, Key, Req.Id, Err))
        return frameError(std::move(Err));
    } else if (Key == "ir") {
      if (!wantString(V, Key, Req.IR, Err))
        return frameError(std::move(Err));
      SawIR = true;
    } else if (Key == "options") {
      if (!V.isObject())
        return frameError("field \"options\" must be an object");
      for (const auto &O : V.members())
        if (!applyOption(O.first, O.second, Req, Err))
          return frameError(std::move(Err));
    } else {
      return frameError("unknown field \"" + Key + "\"");
    }
  }
  if (!SawProto)
    return frameError("missing \"proto\" field");
  if (Req.Kind == RequestKind::Compile && !SawIR)
    return frameError("missing \"ir\" field");
  return Req;
}

std::string serve::encodeResponse(const CompileResponse &Res) {
  JSONValue V = JSONValue::object();
  V.set("proto", JSONValue::str(ProtocolName));
  V.set("id", JSONValue::str(Res.Id));
  V.set("status", JSONValue::str(Res.Status));
  if (Res.Status == "ok") {
    V.set("ir", JSONValue::str(Res.IR));
    V.set("fell_back", JSONValue::boolean(Res.FellBack));
    JSONValue C = JSONValue::object();
    C.set("regions_processed", JSONValue::number(Res.CPR.RegionsProcessed));
    C.set("cpr_blocks_formed", JSONValue::number(Res.CPR.CPRBlocksFormed));
    C.set("cpr_blocks_transformed",
          JSONValue::number(Res.CPR.CPRBlocksTransformed));
    C.set("taken_variants", JSONValue::number(Res.CPR.TakenVariants));
    C.set("branches_covered", JSONValue::number(Res.CPR.BranchesCovered));
    C.set("promoted", JSONValue::number(Res.CPR.Promoted));
    C.set("demoted", JSONValue::number(Res.CPR.Demoted));
    C.set("lookaheads_inserted",
          JSONValue::number(Res.CPR.LookaheadsInserted));
    C.set("ops_moved_off_trace", JSONValue::number(Res.CPR.OpsMovedOffTrace));
    C.set("ops_split", JSONValue::number(Res.CPR.OpsSplit));
    C.set("dce_ops_removed", JSONValue::number(Res.CPR.DCE.OpsRemoved));
    C.set("dce_dests_removed", JSONValue::number(Res.CPR.DCE.DestsRemoved));
    C.set("blocks_rolled_back", JSONValue::number(Res.CPR.BlocksRolledBack));
    C.set("regions_rolled_back", JSONValue::number(Res.CPR.RegionsRolledBack));
    C.set("regions_skipped_budget",
          JSONValue::number(Res.CPR.RegionsSkippedBudget));
    C.set("budget_exhausted", JSONValue::boolean(Res.CPR.BudgetExhausted));
    V.set("cpr", C);
    JSONValue Cache = JSONValue::object();
    Cache.set("hits", JSONValue::number(static_cast<double>(Res.CacheHits)));
    Cache.set("misses",
              JSONValue::number(static_cast<double>(Res.CacheMisses)));
    V.set("cache", Cache);
  }
  if (!Res.Diagnostics.empty()) {
    JSONValue A = JSONValue::array();
    for (const WireDiagnostic &W : Res.Diagnostics) {
      JSONValue D = JSONValue::object();
      D.set("severity", JSONValue::str(W.Severity));
      D.set("code", JSONValue::str(W.Code));
      D.set("message", JSONValue::str(W.Message));
      D.set("site", JSONValue::str(W.Site));
      A.append(D);
    }
    V.set("diagnostics", A);
  }
  if (!Res.Extra.empty()) {
    JSONValue E = JSONValue::object();
    for (const auto &KV : Res.Extra)
      E.set(KV.first, JSONValue::number(KV.second));
    V.set("extra", E);
  }
  // WallMs deliberately stays off the wire: a response frame is a pure
  // function of the request, so cached and cold compiles are
  // byte-identical; clients measure latency themselves.
  return writeJSON(V, /*Pretty=*/false);
}

Expected<CompileResponse> serve::decodeResponse(const std::string &Line) {
  JSONParseResult P = parseJSON(Line);
  if (!P)
    return P.diagnostic("cprd.frame");
  if (!P.Value.isObject())
    return frameError("frame must be a JSON object");
  const JSONValue &V = P.Value;

  auto Str = [&](const char *Key) -> std::string {
    const JSONValue *F = V.find(Key);
    return F && F->isString() ? F->getString() : std::string();
  };
  auto Num = [](const JSONValue *Obj, const char *Key) -> double {
    if (!Obj)
      return 0.0;
    const JSONValue *F = Obj->find(Key);
    return F && F->isNumber() ? F->getNumber() : 0.0;
  };
  auto Flag = [](const JSONValue *Obj, const char *Key) -> bool {
    if (!Obj)
      return false;
    const JSONValue *F = Obj->find(Key);
    return F && F->kind() == JSONValue::Kind::Bool && F->getBool();
  };

  if (Str("proto") != ProtocolName)
    return frameError("unsupported or missing \"proto\"");
  CompileResponse Res;
  Res.Id = Str("id");
  Res.Status = Str("status");
  if (Res.Status.empty())
    return frameError("missing \"status\" field");
  Res.IR = Str("ir");
  Res.FellBack = Flag(&V, "fell_back");

  const JSONValue *C = V.find("cpr");
  if (C && C->isObject()) {
    Res.CPR.RegionsProcessed =
        static_cast<unsigned>(Num(C, "regions_processed"));
    Res.CPR.CPRBlocksFormed =
        static_cast<unsigned>(Num(C, "cpr_blocks_formed"));
    Res.CPR.CPRBlocksTransformed =
        static_cast<unsigned>(Num(C, "cpr_blocks_transformed"));
    Res.CPR.TakenVariants = static_cast<unsigned>(Num(C, "taken_variants"));
    Res.CPR.BranchesCovered =
        static_cast<unsigned>(Num(C, "branches_covered"));
    Res.CPR.Promoted = static_cast<unsigned>(Num(C, "promoted"));
    Res.CPR.Demoted = static_cast<unsigned>(Num(C, "demoted"));
    Res.CPR.LookaheadsInserted =
        static_cast<unsigned>(Num(C, "lookaheads_inserted"));
    Res.CPR.OpsMovedOffTrace =
        static_cast<unsigned>(Num(C, "ops_moved_off_trace"));
    Res.CPR.OpsSplit = static_cast<unsigned>(Num(C, "ops_split"));
    Res.CPR.DCE.OpsRemoved = static_cast<unsigned>(Num(C, "dce_ops_removed"));
    Res.CPR.DCE.DestsRemoved =
        static_cast<unsigned>(Num(C, "dce_dests_removed"));
    Res.CPR.BlocksRolledBack =
        static_cast<unsigned>(Num(C, "blocks_rolled_back"));
    Res.CPR.RegionsRolledBack =
        static_cast<unsigned>(Num(C, "regions_rolled_back"));
    Res.CPR.RegionsSkippedBudget =
        static_cast<unsigned>(Num(C, "regions_skipped_budget"));
    Res.CPR.BudgetExhausted = Flag(C, "budget_exhausted");
  }
  const JSONValue *Cache = V.find("cache");
  if (Cache && Cache->isObject()) {
    Res.CacheHits = static_cast<uint64_t>(Num(Cache, "hits"));
    Res.CacheMisses = static_cast<uint64_t>(Num(Cache, "misses"));
  }
  const JSONValue *Diags = V.find("diagnostics");
  if (Diags && Diags->isArray()) {
    for (const JSONValue &D : Diags->items()) {
      if (!D.isObject())
        continue;
      WireDiagnostic W;
      auto DS = [&](const char *Key) -> std::string {
        const JSONValue *F = D.find(Key);
        return F && F->isString() ? F->getString() : std::string();
      };
      W.Severity = DS("severity");
      W.Code = DS("code");
      W.Message = DS("message");
      W.Site = DS("site");
      Res.Diagnostics.push_back(std::move(W));
    }
  }
  const JSONValue *Extra = V.find("extra");
  if (Extra && Extra->isObject())
    for (const auto &M : Extra->members())
      if (M.second.isNumber())
        Res.Extra.emplace_back(M.first, M.second.getNumber());
  return Res;
}
