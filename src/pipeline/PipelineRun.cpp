//===- pipeline/PipelineRun.cpp - Stage-based pipeline session -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "pipeline/PipelineRun.h"

#include "analysis/AnalysisCache.h"
#include "interp/Profiler.h"
#include "ir/Verifier.h"
#include "lint/Lint.h"
#include "regions/DeadCodeElim.h"
#include "regions/LoopUnroller.h"
#include "regions/Simplify.h"
#include "support/Error.h"
#include "support/FaultInjector.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <cassert>

using namespace cpr;

PipelineRun::PipelineRun(KernelProgram ProgramIn, PipelineOptions OptsIn,
                         StatsRegistry *StatsIn, std::string StatsPrefix)
    : Program(std::move(ProgramIn)), Opts(std::move(OptsIn)), Stats(StatsIn),
      Prefix(std::move(StatsPrefix)) {
  if (!Program.Func)
    reportFatalError("PipelineRun requires a program with a function");
  Name = Program.Func->getName();
  verifyOrDie(*Program.Func, "pipeline input");
}

PipelineRun::~PipelineRun() = default;

void PipelineRun::setBaselineProfile(ProfileData Profile) {
  if (HaveBaselineProfile)
    reportFatalError("PipelineRun: baseline profile already computed");
  BaseProfile = std::move(Profile);
  HaveBaselineProfile = true;
  BaselineProfileInjected = true;
}

void PipelineRun::setTreated(std::unique_ptr<Function> TreatedIn) {
  if (HaveTreated)
    reportFatalError("PipelineRun: treated function already present");
  if (!TreatedIn)
    reportFatalError("PipelineRun: setTreated requires a function");
  verifyOrDie(*TreatedIn, "injected treated function");
  Treated = std::move(TreatedIn);
  HaveTreated = true;
  TreatedInjected = true;
}

void PipelineRun::requireLive(const char *Stage) const {
  if (Finished)
    reportFatalError(std::string("PipelineRun: ") + Stage +
                     " called after finish(); the session is terminal and "
                     "its treated function has been moved out");
}

void PipelineRun::fallbackToBaseline(DiagCode Code, std::string Msg,
                                     const char *Site) {
  if (Opts.Diags) {
    Opts.Diags->report(DiagSeverity::Error, Code, Msg, Site);
    Opts.Diags->report(DiagSeverity::Remark, DiagCode::RegionRolledBack,
                       "@" + Name + " fell back to the untreated baseline",
                       Site);
  }
  Treated = baseline().clone();
  HaveTreated = true;
  TreatedInjected = false;
  TreatedFA.reset(); // described the abandoned function
  CPR = CPRResult();
  FellBack = true;
  // Invalidate the treated-side artifacts: they described the abandoned
  // function.
  HaveTreatedProfile = false;
  TreatedProf = ProfileData();
  TreatedStats = DynStats();
  TreatedTraceData = BranchTrace();
  EquivalenceDone = false;
  if (Stats)
    Stats->addCount(Prefix + "cpr/fallback_baseline", 1);
}

const Function &PipelineRun::baseline() {
  requireLive("baseline");
  if (!Prepared) {
    Prepared = true;
    Function &Baseline = *Program.Func;
    // Optional preparation: unroll self-loop blocks (applies to the
    // shared baseline, like the paper's IMPACT preprocessing).
    if (Opts.UnrollFactor >= 2) {
      PassTimer T(Stats, Prefix + "prepare");
      for (size_t I = 0; I < Baseline.numBlocks(); ++I)
        unrollLoop(Baseline, Baseline.block(I), Opts.UnrollFactor);
      // "Unrolling and other traditional code optimizations" (paper
      // Section 6): clean the materialized offset arithmetic.
      simplifyFunction(Baseline);
      eliminateDeadCode(Baseline);
      verifyOrDie(Baseline, "after unrolling");
    }
  }
  return *Program.Func;
}

const FunctionAnalyses &PipelineRun::baselineAnalyses() {
  requireLive("baselineAnalyses");
  if (!BaseFA) {
    const Function &Base = baseline();
    PassTimer T(Stats, Prefix + "analyses_baseline");
    BaseFA = std::make_unique<FunctionAnalyses>(Base);
  }
  return *BaseFA;
}

const FunctionAnalyses &PipelineRun::treatedAnalyses() {
  requireLive("treatedAnalyses");
  if (!TreatedFA) {
    const Function &TreatedF = treated();
    PassTimer T(Stats, Prefix + "analyses_treated");
    TreatedFA = std::make_unique<FunctionAnalyses>(TreatedF);
  }
  return *TreatedFA;
}

const ProfileData &PipelineRun::baselineProfile() {
  requireLive("baselineProfile");
  if (!HaveBaselineProfile) {
    const Function &Baseline = baseline();
    PassTimer T(Stats, Prefix + "profile_baseline");
    Memory Mem = Program.InitMem;
    BaseProfile = profileRun(Baseline, Mem, Program.InitRegs, &BaseStats,
                             Opts.Simulate ? &BaseTrace : nullptr);
    HaveBaselineProfile = true;
    if (Stats) {
      Stats->addCount(Prefix + "dyn_ops_baseline",
                      static_cast<double>(BaseStats.OpsDispatched));
      Stats->addCount(Prefix + "dyn_branches_baseline",
                      static_cast<double>(BaseStats.BranchesDispatched));
    }
  }
  return BaseProfile;
}

const DynStats &PipelineRun::baselineDynStats() {
  baselineProfile();
  return BaseStats;
}

const BranchTrace &PipelineRun::baselineTrace() {
  if (!Opts.Simulate)
    reportFatalError("PipelineRun: baselineTrace requires Opts.Simulate");
  if (BaselineProfileInjected)
    reportFatalError("PipelineRun: no trace for an injected profile");
  baselineProfile();
  return BaseTrace;
}

void PipelineRun::recordTransformStats() {
  if (!Stats)
    return;
  Stats->addCount(Prefix + "cpr/regions", CPR.RegionsProcessed);
  Stats->addCount(Prefix + "cpr/blocks_formed", CPR.CPRBlocksFormed);
  Stats->addCount(Prefix + "cpr/blocks_transformed",
                  CPR.CPRBlocksTransformed);
  Stats->addCount(Prefix + "cpr/branches_merged", CPR.BranchesCovered);
  Stats->addCount(Prefix + "cpr/ops_moved_off_trace", CPR.OpsMovedOffTrace);
  Stats->addCount(Prefix + "cpr/ops_split", CPR.OpsSplit);
  Stats->addCount(Prefix + "cpr/liveness_solves", CPR.LivenessSolves);
  Stats->addCount(Prefix + "cpr/blocks_rolled_back", CPR.BlocksRolledBack);
  Stats->addCount(Prefix + "cpr/regions_rolled_back", CPR.RegionsRolledBack);
  Stats->addCount(Prefix + "cpr/regions_skipped_budget",
                  CPR.RegionsSkippedBudget);
  Stats->addCount(Prefix + "budget/transform_exhausted",
                  CPR.BudgetExhausted ? 1 : 0);
  Stats->addCount(Prefix + "static_ops_baseline",
                  static_cast<double>(baseline().totalOps()));
  Stats->addCount(Prefix + "static_ops_treated",
                  static_cast<double>(Treated->totalOps()));
  Stats->addCount(Prefix + "static_branches_baseline",
                  static_cast<double>(countStaticBranches(baseline())));
  Stats->addCount(Prefix + "static_branches_treated",
                  static_cast<double>(countStaticBranches(*Treated)));
}

const Function &PipelineRun::treated() {
  requireLive("treated");
  if (!HaveTreated) {
    const ProfileData &Profile = baselineProfile();
    const Function &Base = baseline();
    PassTimer T(Stats, Prefix + "transform");
    Treated = Base.clone();
    HaveTreated = true;
    if (Opts.FailSafe && fault::shouldFail("pipeline.transform")) {
      // Stage-level fault: skip the transform entirely; the baseline
      // clone *is* the (untreated) result.
      T.stop();
      fallbackToBaseline(DiagCode::TransformFault,
                         "injected fault in the transform stage",
                         "pipeline.transform");
      recordTransformStats();
      return *Treated;
    }
    CPRContext Ctx;
    Ctx.FailSafe = Opts.FailSafe;
    Ctx.Diags = Opts.Diags;
    BudgetTracker TransformBudget(Opts.TransformBudget, Opts.RequestDeadline,
                                  Opts.CancelFlag);
    // The tracker is live whenever *any* limit can trip: a plain budget,
    // a request deadline, or a cancel flag -- they all surface through
    // the same per-region exhaustion poll in runControlCPR.
    if (!Opts.TransformBudget.unlimited() || Opts.RequestDeadline.active() ||
        Opts.CancelFlag)
      Ctx.Budget = &TransformBudget;
    // Static-lint stage (docs/LINT.md). The baseline result gates the
    // post-transform policy: findings the input already had are not the
    // transform's fault, so regression detection is differential.
    LintOptions LintOpts;
    LintOpts.Machines = Opts.Machines;
    LintDriver Linter = LintDriver::withBuiltinPasses(std::move(LintOpts));
    bool BaselineLintClean = true;
    if (Opts.Lint) {
      baselineAnalyses(); // shared with estimateMachine; computed once
      PassTimer LT(Stats, Prefix + "lint_baseline");
      LintResult LR = Linter.run(Base, BaseFA.get(), &Program.InitRegs);
      if (Opts.Diags)
        reportLintFindings(LR, *Opts.Diags);
      if (Stats)
        Stats->addCount(Prefix + "lint/baseline_findings",
                        static_cast<double>(LR.Findings.size()));
      BaselineLintClean = LR.errorCount() == 0;
    }
    if (Opts.Lint && Opts.FailSafe && BaselineLintClean)
      Ctx.RegionLint = [this, &Linter](const Function &Candidate) -> Status {
        return lintStatus(Linter.run(Candidate, nullptr, &Program.InitRegs));
      };
    if (Opts.FailSafe && Opts.RegionEquivalence)
      Ctx.RegionOracle = [this, &Base](const Function &Candidate) -> Status {
        if (fault::shouldFail("interp.oracle"))
          return Status::error(DiagCode::OracleMismatch, "injected fault",
                               "interp.oracle");
        EquivResult E = cpr::checkEquivalence(
            Base, Candidate, Program.InitMem, Program.InitRegs);
        if (!E.Equivalent)
          return Status::error(DiagCode::OracleMismatch,
                               "region equivalence re-check failed [" +
                                   std::string(divergenceName(E.Kind)) +
                                   "]: " + E.Detail,
                               "interp.oracle");
        return Status::success();
      };
    CPR = runControlCPR(*Treated, Profile, Opts.CPR, Ctx);
    T.stop();
    if (Opts.Lint) {
      treatedAnalyses(); // the transform is done mutating *Treated
      PassTimer LT(Stats, Prefix + "lint_treated");
      LintResult LR =
          Linter.run(*Treated, TreatedFA.get(), &Program.InitRegs);
      if (Opts.Diags)
        reportLintFindings(LR, *Opts.Diags);
      if (Stats)
        Stats->addCount(Prefix + "lint/treated_findings",
                        static_cast<double>(LR.Findings.size()));
      if (BaselineLintClean && LR.errorCount() > 0) {
        const LintFinding *First = nullptr;
        for (const LintFinding &F : LR.Findings)
          if (F.Severity == DiagSeverity::Error && !First)
            First = &F;
        std::string Msg = "post-transform lint found " +
                          std::to_string(LR.errorCount()) +
                          " invariant violation(s) in @" + Name + "; first: " +
                          First->str();
        if (!Opts.FailSafe)
          reportFatalError(Msg);
        LT.stop();
        fallbackToBaseline(First->Code, std::move(Msg),
                           "lint.pipeline");
      }
    }
    recordTransformStats();
  }
  return *Treated;
}

const CPRResult &PipelineRun::cprResult() {
  treated();
  return CPR;
}

const EquivResult &PipelineRun::checkEquivalenceResult() {
  requireLive("checkEquivalenceResult");
  if (!EquivalenceDone) {
    const Function &TreatedF = treated();
    PassTimer T(Stats, Prefix + "equivalence");
    Equivalence = cpr::checkEquivalence(baseline(), TreatedF,
                                        Program.InitMem, Program.InitRegs);
    EquivalenceDone = true;
  }
  return Equivalence;
}

void PipelineRun::checkEquivalence() {
  const EquivResult &E = checkEquivalenceResult();
  if (E.Equivalent)
    return;
  std::string Msg = "control CPR changed observable behavior of @" + Name +
                    " [" + divergenceName(E.Kind) + "]: " + E.Detail;
  if (!Opts.FailSafe)
    reportFatalError(Msg);
  // Fail-safe degradation: the treated function is abandoned for a
  // baseline clone, so finish() still yields a runnable result.
  fallbackToBaseline(DiagCode::OracleMismatch, std::move(Msg),
                     "interp.oracle");
}

const ProfileData &PipelineRun::treatedProfile() {
  requireLive("treatedProfile");
  if (!HaveTreatedProfile) {
    const Function &TreatedF = treated();
    PassTimer T(Stats, Prefix + "profile_treated");
    Memory Mem = Program.InitMem;
    TreatedProf =
        profileRun(TreatedF, Mem, Program.InitRegs, &TreatedStats,
                   Opts.Simulate ? &TreatedTraceData : nullptr);
    HaveTreatedProfile = true;
    if (Stats) {
      Stats->addCount(Prefix + "dyn_ops_treated",
                      static_cast<double>(TreatedStats.OpsDispatched));
      Stats->addCount(Prefix + "dyn_branches_treated",
                      static_cast<double>(TreatedStats.BranchesDispatched));
    }
  }
  return TreatedProf;
}

const DynStats &PipelineRun::treatedDynStats() {
  treatedProfile();
  return TreatedStats;
}

const BranchTrace &PipelineRun::treatedTrace() {
  if (!Opts.Simulate)
    reportFatalError("PipelineRun: treatedTrace requires Opts.Simulate");
  treatedProfile();
  return TreatedTraceData;
}

void PipelineRun::prepare() {
  baselineProfile();
  treated();
  if (Opts.CheckEquivalence)
    checkEquivalence();
  treatedProfile();
  // Solve the shared analysis bundles serially, before the concurrent
  // per-machine stages consume them.
  baselineAnalyses();
  treatedAnalyses();
}

Status PipelineRun::tryPrepare() {
  requireLive("tryPrepare");

  // Request deadline / client cancellation, polled at stage boundaries
  // (docs/SERVICE.md "Resilience"). In fail-safe mode an expired or
  // cancelled request degrades to the baseline right away instead of
  // starting work its requester will never wait for; the transform
  // itself polls the same limits per region through Ctx.Budget, and the
  // profiling runs stay bounded by InterpMaxSteps.
  auto ExpiryCode = [this] {
    if (Opts.CancelFlag && Opts.CancelFlag->load(std::memory_order_relaxed))
      return DiagCode::Cancelled;
    if (Opts.RequestDeadline.expired())
      return DiagCode::DeadlineExceeded;
    return DiagCode::None;
  };
  auto ExpiryMsg = [this](DiagCode Code) {
    return Code == DiagCode::Cancelled
               ? std::string("request cancelled by client")
               : Opts.RequestDeadline.describeExpiry();
  };
  // Degrades an expired session: baseline clone as the result, and the
  // baseline artifacts double as the treated ones (the clone is the same
  // function on the same inputs, so the profiles are identical by
  // construction -- no second interpreter run).
  auto DegradeExpired = [this, &ExpiryMsg](DiagCode Code) {
    fallbackToBaseline(Code, ExpiryMsg(Code), "pipeline.deadline");
    TreatedProf = BaseProfile;
    TreatedStats = BaseStats;
    TreatedTraceData = BaseTrace;
    HaveTreatedProfile = true;
    return Status::success();
  };

  // Baseline profile, budgeted and non-fatal: without it nothing
  // downstream can run, so a failure here fails the session.
  if (!HaveBaselineProfile) {
    const Function &Base = baseline();
    PassTimer T(Stats, Prefix + "profile_baseline");
    Memory Mem = Program.InitMem;
    Expected<ProfileData> P =
        tryProfileRun(Base, Mem, Program.InitRegs, &BaseStats,
                      Opts.Simulate ? &BaseTrace : nullptr,
                      Opts.InterpMaxSteps);
    if (!P) {
      Diagnostic D = P.takeDiagnostic();
      if (Opts.Diags)
        Opts.Diags->report(D);
      return Status::failure(std::move(D));
    }
    BaseProfile = P.takeValue();
    HaveBaselineProfile = true;
    if (Stats) {
      Stats->addCount(Prefix + "dyn_ops_baseline",
                      static_cast<double>(BaseStats.OpsDispatched));
      Stats->addCount(Prefix + "dyn_branches_baseline",
                      static_cast<double>(BaseStats.BranchesDispatched));
    }
  }

  // Stage boundary: degrade before the transform even starts.
  if (Opts.FailSafe && !HaveTreated)
    if (DiagCode Code = ExpiryCode(); Code != DiagCode::None)
      return DegradeExpired(Code);

  treated();
  if (Opts.CheckEquivalence)
    checkEquivalence(); // falls back (never fatal) when Opts.FailSafe

  // Stage boundary: the deadline may have expired mid-transform; skip
  // the treated profiling run the requester will not wait for.
  if (Opts.FailSafe && !FellBack && !HaveTreatedProfile)
    if (DiagCode Code = ExpiryCode(); Code != DiagCode::None)
      return DegradeExpired(Code);

  // Treated profile, budgeted: an unprofilable treated function degrades
  // to the baseline (whose profile succeeded above) in fail-safe mode.
  for (int Attempt = 0; !HaveTreatedProfile; ++Attempt) {
    const Function &TreatedF = treated();
    PassTimer T(Stats, Prefix + "profile_treated");
    Memory Mem = Program.InitMem;
    Expected<ProfileData> P =
        tryProfileRun(TreatedF, Mem, Program.InitRegs, &TreatedStats,
                      Opts.Simulate ? &TreatedTraceData : nullptr,
                      Opts.InterpMaxSteps);
    if (!P) {
      Diagnostic D = P.takeDiagnostic();
      if (!Opts.FailSafe || FellBack || Attempt > 0) {
        if (Opts.Diags)
          Opts.Diags->report(D);
        return Status::failure(std::move(D));
      }
      T.stop();
      fallbackToBaseline(D.Code, D.Message, "interp.profile");
      continue;
    }
    TreatedProf = P.takeValue();
    HaveTreatedProfile = true;
    if (Stats) {
      Stats->addCount(Prefix + "dyn_ops_treated",
                      static_cast<double>(TreatedStats.OpsDispatched));
      Stats->addCount(Prefix + "dyn_branches_treated",
                      static_cast<double>(TreatedStats.BranchesDispatched));
    }
  }
  baselineAnalyses();
  treatedAnalyses();
  return Status::success();
}

MachineComparison PipelineRun::estimateMachine(const MachineDesc &MD) const {
  assert(HaveBaselineProfile && HaveTreated && HaveTreatedProfile &&
         "estimateMachine requires prepare()");
  PassTimer T(Stats, Prefix + "estimate/" + MD.getName());
  MachineComparison MC;
  MC.MachineName = MD.getName();
  // The shared analysis bundles were solved serially by prepare(); a
  // caller that forced the stages by hand may not have them, in which
  // case the estimator computes its own liveness (same result -- the
  // analysis is a pure function of the IR).
  MC.BaselineCycles =
      estimatePerformance(*Program.Func, MD, BaseProfile, Opts.Perf,
                          BaseFA ? &BaseFA->LV : nullptr)
          .TotalCycles;
  MC.TreatedCycles =
      estimatePerformance(*Treated, MD, TreatedProf, Opts.Perf,
                          TreatedFA ? &TreatedFA->LV : nullptr)
          .TotalCycles;
  T.stop();
  if (Stats) {
    Stats->addCount(Prefix + "estimate/" + MD.getName() + "/cycles_baseline",
                    MC.BaselineCycles);
    Stats->addCount(Prefix + "estimate/" + MD.getName() + "/cycles_treated",
                    MC.TreatedCycles);
  }
  return MC;
}

SimComparison PipelineRun::simulate(const MachineDesc &MD,
                                    PredictorKind K) const {
  return simulate(MD, K, Opts.Frontend);
}

SimComparison PipelineRun::simulate(const MachineDesc &MD, PredictorKind K,
                                    const FrontendOptions &FE,
                                    const std::string &CellName) const {
  assert(Opts.Simulate && "simulate requires Opts.Simulate");
  assert(HaveBaselineProfile && HaveTreated && HaveTreatedProfile &&
         "simulate requires prepare()");
  std::string Key =
      Prefix + "sim/" + MD.getName() + "/" + predictorKindName(K);
  if (!CellName.empty())
    Key += "/" + CellName;
  PassTimer T(Stats, Key);
  SimOptions SO;
  SO.MispredictPenalty = Opts.MispredictPenalty;
  SO.AllowSpeculation = Opts.Perf.AllowSpeculation;
  SO.Frontend = FE;

  SimComparison SC;
  SC.MachineName = MD.getName();
  SC.PredictorName = predictorKindName(K);

  PredictorConfig CB;
  CB.Profile = &BaseProfile;
  std::unique_ptr<BranchPredictor> PB = makePredictor(K, CB);
  // Like estimateMachine: the shared bundles when prepare() solved them,
  // else the simulator solves its own liveness.
  SC.Baseline = simulateTrace(*Program.Func, MD, BaseTrace, *PB, SO,
                              BaseFA ? &BaseFA->LV : nullptr);

  PredictorConfig CT;
  CT.Profile = &TreatedProf;
  std::unique_ptr<BranchPredictor> PT = makePredictor(K, CT);
  SC.Treated = simulateTrace(*Treated, MD, TreatedTraceData, *PT, SO,
                             TreatedFA ? &TreatedFA->LV : nullptr);

  if (!SC.Baseline.ok() || !SC.Treated.ok())
    reportFatalError(
        "trace simulation of @" + Name + " failed: " +
        (SC.Baseline.ok() ? SC.Treated.Error : SC.Baseline.Error));
  T.stop();
  if (Stats) {
    Stats->addCount(Key + "/cycles_baseline", SC.Baseline.TotalCycles);
    Stats->addCount(Key + "/cycles_treated", SC.Treated.TotalCycles);
    Stats->addCount(Key + "/mispredicts_baseline",
                    static_cast<double>(SC.Baseline.Mispredicts));
    Stats->addCount(Key + "/mispredicts_treated",
                    static_cast<double>(SC.Treated.Mispredicts));
    Stats->addCount(Key + "/pred_lookups_baseline",
                    static_cast<double>(SC.Baseline.Pred.Lookups));
    Stats->addCount(Key + "/pred_lookups_treated",
                    static_cast<double>(SC.Treated.Pred.Lookups));
    if (FE.UseBTB) {
      Stats->addCount(Key + "/btb_hits_baseline",
                      static_cast<double>(SC.Baseline.BTBHits));
      Stats->addCount(Key + "/btb_hits_treated",
                      static_cast<double>(SC.Treated.BTBHits));
      Stats->addCount(Key + "/btb_misses_baseline",
                      static_cast<double>(SC.Baseline.BTBMisses));
      Stats->addCount(Key + "/btb_misses_treated",
                      static_cast<double>(SC.Treated.BTBMisses));
    }
    if (FE.Decoupled) {
      Stats->addCount(Key + "/fetch_stalls_baseline",
                      static_cast<double>(SC.Baseline.FetchStallCycles));
      Stats->addCount(Key + "/fetch_stalls_treated",
                      static_cast<double>(SC.Treated.FetchStallCycles));
    }
  }
  return SC;
}

PipelineResult PipelineRun::finish(ThreadPool *Pool) {
  requireLive("finish");
  prepare();

  PipelineResult Res;
  Res.Name = Name;
  Res.DynBaseline = BaseStats;
  Res.DynTreated = TreatedStats;
  Res.CPR = CPR;
  Res.StaticOpsBaseline = Program.Func->totalOps();
  Res.StaticOpsTreated = Treated->totalOps();
  Res.StaticBranchesBaseline = countStaticBranches(*Program.Func);
  Res.StaticBranchesTreated = countStaticBranches(*Treated);

  // Per-machine estimates: independent, read-only stages; results land
  // in preallocated slots so the output order (and every downstream
  // table) is identical at any thread count.
  Res.Machines.resize(Opts.Machines.size());
  parallelFor(Pool, Opts.Machines.size(), [&](size_t I) {
    Res.Machines[I] = estimateMachine(Opts.Machines[I]);
  });

  // Machine x predictor dynamic refinement, machine-major like the
  // serial pipeline always produced.
  if (Opts.Simulate) {
    size_t NumP = Opts.Predictors.size();
    Res.Sim.resize(Opts.Machines.size() * NumP);
    parallelFor(Pool, Res.Sim.size(), [&](size_t I) {
      Res.Sim[I] =
          simulate(Opts.Machines[I / NumP], Opts.Predictors[I % NumP]);
    });
  }

  Res.Treated = std::move(Treated);
  // Poison the session: Treated is gone, so any further stage access
  // would be a use-after-move. requireLive turns that into a loud error.
  Finished = true;
  HaveTreated = false;
  return Res;
}
