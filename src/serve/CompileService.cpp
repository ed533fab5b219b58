//===- serve/CompileService.cpp - One compile request, isolated ------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/CompileService.h"

#include "fuzz/Corpus.h"
#include "ir/Verifier.h"
#include "pipeline/PipelineRun.h"
#include "support/Error.h"

#include <chrono>

using namespace cpr;
using namespace cpr::serve;

namespace {

Diagnostic requestError(DiagCode Code, std::string Msg, std::string Site) {
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Code = Code;
  D.Message = std::move(Msg);
  D.Site = std::move(Site);
  return D;
}

} // namespace

std::string serve::requestKey(const CompileRequest &Req,
                              uint64_t InterpMaxSteps,
                              const Budget &TransformBudget) {
  CompileRequest Key = Req;
  Key.Id.clear();
  Key.DeadlineMs = 0.0;
  Key.InterpMaxSteps = InterpMaxSteps;
  Key.TransformBudget = TransformBudget;
  return encodeRequest(Key);
}

CompileService::CompileService(ServiceOptions Opts)
    : Opts(Opts), Cache(Opts.CacheBytes) {}

CompileResponse CompileService::compile(const CompileRequest &Req,
                                        const std::atomic<bool> *Cancel) {
  auto T0 = std::chrono::steady_clock::now();
  auto ElapsedMs = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - T0)
        .count();
  };

  CompileResponse Res;
  Res.Id = Req.Id;
  if (Req.Kind == RequestKind::Ping) {
    Res.Status = "pong";
    return Res;
  }
  if (Req.Kind == RequestKind::Stats) {
    RegionCacheStats S = Cache.stats();
    Res.Status = "stats";
    Res.Extra.emplace_back("cache_hits", static_cast<double>(S.Hits));
    Res.Extra.emplace_back("cache_misses", static_cast<double>(S.Misses));
    Res.Extra.emplace_back("cache_evictions",
                           static_cast<double>(S.Evictions));
    Res.Extra.emplace_back("cache_entries", static_cast<double>(S.Entries));
    Res.Extra.emplace_back("cache_bytes", static_cast<double>(S.Bytes));
    Res.Extra.emplace_back("cache_max_bytes",
                           static_cast<double>(S.MaxBytes));
    return Res;
  }

  // Admission: bound the payload before any parsing work.
  if (Opts.MaxIRBytes != 0 && Req.IR.size() > Opts.MaxIRBytes) {
    Res = errorResponse(
        Req.Id,
        requestError(DiagCode::BudgetExhausted,
                     "request rejected: ir payload (" +
                         std::to_string(Req.IR.size()) + " bytes) exceeds " +
                         std::to_string(Opts.MaxIRBytes) + " byte cap",
                     "cprd.admission"));
    return Res;
  }

  // Admission: resolve the request budgets against the service defaults
  // and ceilings. The resolved values enter the cache key -- two
  // requests clamped to the same effective budgets share a cache entry.
  uint64_t InterpSteps = Req.InterpMaxSteps != 0 ? Req.InterpMaxSteps
                                                 : Opts.DefaultInterpMaxSteps;
  if (Opts.MaxInterpSteps != 0 &&
      (InterpSteps == 0 || InterpSteps > Opts.MaxInterpSteps))
    InterpSteps = Opts.MaxInterpSteps;
  Budget TB = Req.TransformBudget.unlimited() ? Opts.DefaultTransformBudget
                                              : Req.TransformBudget;
  if (Opts.MaxTransformSteps != 0 &&
      (TB.MaxSteps == 0 || TB.MaxSteps > Opts.MaxTransformSteps))
    TB.MaxSteps = Opts.MaxTransformSteps;

  // Anchor the request's relative deadline to this host's steady clock.
  // It deliberately does NOT enter the cache key: it is wall-clock
  // dependent, a compile it truncates carries a diagnostic and is never
  // cached, and a hit does no work it could bound.
  Deadline DL = Req.DeadlineMs > 0.0 ? Deadline::afterMs(Req.DeadlineMs)
                                     : Deadline::never();

  // The whole response is cached under the request itself. A miss hands
  // this request the key's in-flight claim, which every exit below
  // commits or abandons.
  std::string Key = requestKey(Req, InterpSteps, TB);
  if (std::optional<CompileResponse> Hit = Cache.lookup(Key)) {
    Res = std::move(*Hit);
    Res.Id = Req.Id;
    Res.CacheHits = 1;
    Res.CacheMisses = 0;
    Res.WallMs = ElapsedMs();
    return Res;
  }

  // Failure isolation: everything below runs trapped -- an internal
  // fatal error becomes an error response, not a dead worker.
  DiagnosticEngine Diags;
  try {
    ScopedFatalErrorTrap Trap;
    Res = compileLocked(Req, InterpSteps, TB, DL, Diags, Cancel);
  } catch (const FatalError &E) {
    Res = errorResponse(Req.Id,
                        requestError(DiagCode::Internal,
                                     std::string("internal fault: ") +
                                         E.message(),
                                     "cprd.request"));
  } catch (...) {
    Cache.abandon(Key); // waiters must not block on a claim nobody holds
    throw;
  }

  // Attach every diagnostic the request produced (rollback remarks,
  // budget warnings, lint findings, ...), after any error placed by the
  // handlers above.
  for (const Diagnostic &D : Diags.diagnostics())
    Res.Diagnostics.push_back(toWire(D));
  Res.CacheMisses = 1;

  // Only a clean response is cached: errors, fallbacks and any diagnostic
  // may depend on the wall clock or on the client (deadline, cancel,
  // wall budget), so those requests compile afresh every time.
  if (Res.ok() && !Res.FellBack && Res.Diagnostics.empty())
    Cache.commit(Key, Res);
  else
    Cache.abandon(Key);
  Res.WallMs = ElapsedMs();
  return Res;
}

CompileResponse CompileService::compileLocked(const CompileRequest &Req,
                                              uint64_t InterpSteps,
                                              const Budget &TB,
                                              const Deadline &DL,
                                              DiagnosticEngine &Diags,
                                              const std::atomic<bool> *Cancel) {
  // Parse the fuzz-program payload (IR + input directives).
  FuzzParseResult FP = parseFuzzProgram(Req.IR);
  if (!FP)
    return errorResponse(Req.Id,
                         requestError(DiagCode::ParseError, FP.Error,
                                      "cprd.request.ir"));
  std::vector<std::string> Violations = verifyFunction(*FP.Program.Func);
  if (!Violations.empty()) {
    std::string Msg = "request IR failed verification: " + Violations.front();
    if (Violations.size() > 1)
      Msg += " (+" + std::to_string(Violations.size() - 1) + " more)";
    return errorResponse(Req.Id, requestError(DiagCode::VerifyFailed,
                                              std::move(Msg),
                                              "cprd.request.ir"));
  }

  PipelineOptions PO;
  PO.CPR = Req.CPR;
  PO.UnrollFactor = Req.UnrollFactor;
  PO.Machines.clear(); // the service transforms; it does not estimate
  PO.CheckEquivalence = false;
  PO.Simulate = false;
  PO.FailSafe = true;
  PO.Lint = Req.Lint;
  PO.RegionEquivalence = Req.RegionEquivalence;
  PO.InterpMaxSteps = InterpSteps;
  PO.TransformBudget = TB;
  PO.RequestDeadline = DL;
  PO.CancelFlag = Cancel;
  PO.Diags = &Diags;

  // Keep the inputs: the response echoes them so it is itself a runnable
  // corpus entry.
  std::vector<RegBinding> InitRegs = FP.Program.InitRegs;
  Memory InitMem = FP.Program.InitMem;
  std::string Description = FP.Program.Description;

  PipelineRun Run(std::move(FP.Program), PO);
  if (!Run.tryPrepare()) {
    // tryPrepare() reported the failure into Diags; the engine snapshot
    // carries it.
    CompileResponse Res;
    Res.Id = Req.Id;
    Res.Status = "error";
    return Res;
  }

  CompileResponse Res;
  Res.Id = Req.Id;
  Res.Status = "ok";
  KernelProgram Out;
  Out.Func = Run.treated().clone();
  Out.InitRegs = std::move(InitRegs);
  Out.InitMem = std::move(InitMem);
  Out.Description = std::move(Description);
  Res.IR = serializeFuzzProgram(Out);
  Res.CPR = Run.cprResult();
  Res.FellBack = Run.fellBack();
  return Res;
}
