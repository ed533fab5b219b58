//===- fuzz/Differential.cpp - The fuzzer's judges -----------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Differential.h"

#include "ir/Verifier.h"
#include "lint/Witness.h"
#include "pipeline/PipelineRun.h"
#include "support/Error.h"

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

FuzzJudge::FuzzJudge(FuzzOracle OracleIn, std::vector<FuzzVariant> VariantsIn,
                     std::vector<MachineDesc> MachinesIn)
    : Oracle(OracleIn), Variants(std::move(VariantsIn)),
      Machines(std::move(MachinesIn)) {
  if (Variants.empty())
    Variants = defaultFuzzVariants();
  if (Machines.empty())
    Machines = {MachineDesc::medium(), MachineDesc::wide()};
  LintOptions LintOpts;
  LintOpts.Machines = Machines;
  Linter = LintDriver(std::move(LintOpts));
}

namespace {

/// verifyOrDie's messages start with this prefix, which is how a trapped
/// FatalError is told apart from other fatal stage failures.
bool isVerifierMessage(const std::string &Msg) {
  return Msg.rfind("IR verification failed (", 0) == 0;
}

/// The static oracle's stand-in for a profiling run: every branch is hot
/// and almost never taken -- exactly the bias the CPR heuristics form
/// on-trace blocks for -- so the transform exercises its full machinery
/// on every case without an interpreter in the loop.
ProfileData syntheticBiasedProfile(const Function &F) {
  ProfileData Prof;
  for (size_t B = 0; B < F.numBlocks(); ++B)
    for (const Operation &Op : F.block(B).ops())
      if (Op.isBranch()) {
        Prof.addBranchReached(Op.getId(), 100);
        Prof.addBranchTaken(Op.getId(), 2);
      }
  return Prof;
}

/// The first error finding of \p R whose solved witness confirms on a
/// replay through \p F, or null.
const LintFinding *firstConfirmedError(const Function &F,
                                       const LintResult &R) {
  for (const LintFinding &Fd : R.Findings)
    if (Fd.Severity == DiagSeverity::Error && Fd.Witness &&
        Fd.Witness->Solved && confirmWitness(F, *Fd.Witness).Confirmed)
      return &Fd;
  return nullptr;
}

} // namespace

FuzzVerdict FuzzJudge::judge(const KernelProgram &P,
                             size_t VariantIdx) const {
  const FuzzVariant &Variant = Variants[VariantIdx];
  FuzzVerdict Res;
  auto Fail = [&](FuzzOutcome O, const std::string &What) {
    Res.Outcome = O;
    Res.Detail = "[" + Variant.Name + "] " + What;
    return Res;
  };

  PipelineOptions Opts;
  Opts.CPR = Variant.CPR;
  Opts.UnrollFactor = Variant.UnrollFactor;
  Opts.Machines = Machines;
  Opts.CheckEquivalence = false; // the non-fatal oracle runs below
  // Strict, because fail-safe rollback would hide the defects a campaign
  // hunts -- except under the static oracle, whose fail-safe transform
  // rolls ordinary failures back and commits what only the checks can
  // see (a verifier-clean invariant break such as the planted defect).
  Opts.FailSafe = Oracle == FuzzOracle::StaticLint;

  // Fatal errors (reportFatalError, CPR_UNREACHABLE) on this thread now
  // throw instead of aborting, so one broken variant cannot take down the
  // campaign.
  ScopedFatalErrorTrap Trap;
  try {
    PipelineRun Session(P.clone(), Opts);
    if (Oracle == FuzzOracle::StaticLint)
      Session.setBaselineProfile(syntheticBiasedProfile(Session.baseline()));
    const Function &Treated = Session.treated();
    std::vector<std::string> Violations = verifyFunction(Treated);
    if (!Violations.empty())
      return Fail(FuzzOutcome::VerifierReject,
                  "treated function fails verification: " + Violations[0]);

    LintResult TreatedLint;
    if (Oracle != FuzzOracle::Differential) {
      // Differential gate: findings the baseline already has are the
      // generator's, not the transform's.
      if (Linter.run(Session.baseline(), nullptr, &P.InitRegs).errorCount() >
          0) {
        Res.BaselineDirty = true;
        return Res;
      }
      TreatedLint = Linter.run(Treated, nullptr, &P.InitRegs);
      if (Oracle == FuzzOracle::StaticLint) {
        for (const LintFinding &Fd : TreatedLint.Findings)
          if (Fd.Severity == DiagSeverity::Error)
            return Fail(FuzzOutcome::LintReject, Fd.str());
        return Res;
      }
    }

    const EquivResult &E = Session.checkEquivalenceResult();
    if (Oracle == FuzzOracle::CrossValidate) {
      const LintFinding *Confirmed =
          E.Equivalent ? firstConfirmedError(Treated, TreatedLint) : nullptr;
      if (Confirmed) {
        Res.Cross = CrossDisagreement::ConfirmedButPass;
        return Fail(FuzzOutcome::Mismatch,
                    "confirmed-witness-differential-pass: " +
                        Confirmed->str());
      }
      if (!E.Equivalent && TreatedLint.errorCount() == 0) {
        Res.Cross = CrossDisagreement::MismatchUnproved;
        return Fail(FuzzOutcome::Mismatch,
                    std::string("differential-mismatch-no-finding [") +
                        divergenceName(E.Kind) + "]: " + E.Detail);
      }
      if (!E.Equivalent)
        return Res; // both oracles reject the treated code: they agree
    } else if (!E.Equivalent) {
      Res.Divergence = E.Kind;
      return Fail(FuzzOutcome::Mismatch, E.Detail);
    }
    // Downstream crash coverage: the treated profile and the estimate on
    // every machine, so scheduler and estimator faults surface here too.
    Session.prepare();
    for (const MachineDesc &M : Machines)
      (void)Session.estimateMachine(M);
  } catch (const FatalError &E) {
    return Fail(isVerifierMessage(E.message()) ? FuzzOutcome::VerifierReject
                                               : FuzzOutcome::Crash,
                E.message());
  }
  return Res;
}

CaseVerdict FuzzJudge::judgeCase(const KernelProgram &P) const {
  CaseVerdict Case;
  for (size_t V = 0; V < Variants.size(); ++V) {
    FuzzVerdict Verdict = judge(P, V);
    Case.BaselineDirty |= Verdict.BaselineDirty;
    if (fuzzOutcomeSeverity(Verdict.Outcome) >
        fuzzOutcomeSeverity(Case.Worst.Outcome)) {
      Case.Worst = std::move(Verdict);
      Case.Variant = V;
    }
  }
  return Case;
}
