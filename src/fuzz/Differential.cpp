//===- fuzz/Differential.cpp - Differential CPR oracle --------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Differential.h"

#include "ir/Verifier.h"
#include "pipeline/PipelineRun.h"
#include "support/Error.h"

#include <cstring>

using namespace cpr;

const char *cpr::fuzzOutcomeName(FuzzOutcome O) {
  switch (O) {
  case FuzzOutcome::Pass:
    return "pass";
  case FuzzOutcome::VerifierReject:
    return "verifier-reject";
  case FuzzOutcome::LintReject:
    return "lint-reject";
  case FuzzOutcome::Crash:
    return "crash";
  case FuzzOutcome::Mismatch:
    return "mismatch";
  }
  return "unknown";
}

int cpr::fuzzOutcomeSeverity(FuzzOutcome O) {
  switch (O) {
  case FuzzOutcome::Pass:
    return 0;
  case FuzzOutcome::VerifierReject:
    return 1;
  case FuzzOutcome::LintReject:
    return 2;
  case FuzzOutcome::Crash:
    return 3;
  case FuzzOutcome::Mismatch:
    return 4;
  }
  return 0;
}

std::vector<FuzzVariant> cpr::defaultFuzzVariants() {
  std::vector<FuzzVariant> Vs;
  {
    FuzzVariant V;
    V.Name = "default";
    Vs.push_back(V);
  }
  {
    FuzzVariant V;
    V.Name = "aggressive";
    V.CPR.ExitWeightThreshold = 0.50;
    V.CPR.PredictTakenThreshold = 0.50;
    V.CPR.MinBranchesPerBlock = 1;
    V.CPR.MaxBranchesPerBlock = 32;
    Vs.push_back(V);
  }
  {
    FuzzVariant V;
    V.Name = "no-taken";
    V.CPR.EnableTakenVariation = false;
    Vs.push_back(V);
  }
  {
    FuzzVariant V;
    V.Name = "no-spec";
    V.CPR.EnablePredicateSpeculation = false;
    Vs.push_back(V);
  }
  {
    FuzzVariant V;
    V.Name = "unroll2";
    V.UnrollFactor = 2;
    Vs.push_back(V);
  }
  return Vs;
}

DifferentialRunner::DifferentialRunner(std::vector<FuzzVariant> VariantsIn,
                                       std::vector<MachineDesc> MachinesIn)
    : Variants(std::move(VariantsIn)), Machines(std::move(MachinesIn)) {
  if (Variants.empty())
    Variants = defaultFuzzVariants();
  if (Machines.empty())
    Machines = {MachineDesc::medium(), MachineDesc::wide()};
}

namespace {

/// verifyOrDie's messages start with this prefix, which is how a trapped
/// FatalError is told apart from other fatal stage failures.
bool isVerifierMessage(const std::string &Msg) {
  return Msg.rfind("IR verification failed (", 0) == 0;
}

} // namespace

CellResult DifferentialRunner::runCell(const KernelProgram &P,
                                       size_t VariantIdx,
                                       size_t MachineIdx) const {
  const FuzzVariant &Variant = Variants[VariantIdx];
  const MachineDesc &Machine = Machines[MachineIdx];
  CellResult Res;

  PipelineOptions Opts;
  Opts.CPR = Variant.CPR;
  Opts.UnrollFactor = Variant.UnrollFactor;
  Opts.Machines = {Machine};
  Opts.CheckEquivalence = false; // the non-fatal oracle runs below
  // Strict mode, explicitly: fail-safe rollback would *hide* the defects
  // this campaign exists to find. Fatal stage failures surface through
  // the trap below; miscompiles through the oracle.
  Opts.FailSafe = false;

  // Fatal errors (reportFatalError, CPR_UNREACHABLE) on this thread now
  // throw instead of aborting, so one broken cell cannot take down the
  // campaign.
  ScopedFatalErrorTrap Trap;
  try {
    // A private clone: sessions mutate their program, and cells of one
    // case may run concurrently.
    PipelineRun Session(P.clone(), Opts);
    const Function &Treated = Session.treated();
    std::vector<std::string> Violations = verifyFunction(Treated);
    if (!Violations.empty()) {
      Res.Outcome = FuzzOutcome::VerifierReject;
      Res.Detail = "treated function fails verification: " + Violations[0];
      return Res;
    }
    const EquivResult &E = Session.checkEquivalenceResult();
    if (!E.Equivalent) {
      Res.Outcome = FuzzOutcome::Mismatch;
      Res.Divergence = E.Kind;
      Res.Detail = "[" + Variant.Name + " x " + Machine.getName() + "] " +
                   E.Detail;
      return Res;
    }
    // Downstream crash coverage: force the treated profile and the
    // machine estimate so scheduler/estimator faults surface here too.
    Session.prepare();
    (void)Session.estimateMachine(Machine);
  } catch (const FatalError &E) {
    Res.Outcome = isVerifierMessage(E.message()) ? FuzzOutcome::VerifierReject
                                                 : FuzzOutcome::Crash;
    Res.Detail = "[" + Variant.Name + " x " + Machine.getName() + "] " +
                 E.message();
  }
  return Res;
}

CaseResult DifferentialRunner::runCase(const KernelProgram &P) const {
  CaseResult Case;
  Case.Cells.reserve(numCells());
  for (size_t V = 0; V < Variants.size(); ++V) {
    for (size_t M = 0; M < Machines.size(); ++M) {
      CellResult Cell = runCell(P, V, M);
      if (fuzzOutcomeSeverity(Cell.Outcome) >
          fuzzOutcomeSeverity(Case.Worst)) {
        Case.Worst = Cell.Outcome;
        Case.WorstVariant = V;
        Case.WorstMachine = M;
      }
      Case.Cells.push_back(std::move(Cell));
    }
  }
  return Case;
}
