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

#include <algorithm>
#include <cassert>
#include <string_view>

using namespace cpr;

PipelineRun::PipelineRun(KernelProgram ProgramIn, PipelineOptions OptsIn,
                         StatsRegistry *StatsIn, std::string StatsPrefix)
    : Program(std::move(ProgramIn)), Opts(std::move(OptsIn)), Stats(StatsIn),
      Prefix(std::move(StatsPrefix)) {
  if (!Program.Func)
    reportFatalError("PipelineRun requires a program with a function");
  Name = Program.Func->getName();
  verifyOrDie(*Program.Func, "pipeline input");
  if (Opts.Simulate) {
    BaseReplays = makeReplaySlots();
    TreatedReplays = makeReplaySlots();
  }
}

PipelineRun::~PipelineRun() = default;

void PipelineRun::setBaselineProfile(ProfileData Profile) {
  if (BaseRun.Done)
    reportFatalError("PipelineRun: baseline profile already computed");
  BaseRun.Profile = std::move(Profile);
  BaseRun.Done = true;
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
  TreatedRun = ProfiledRun();
  if (Opts.Simulate)
    TreatedReplays = makeReplaySlots();
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

/// Dependence-graph options of every schedule the session builds.
static DepGraphOptions graphOptions(const PipelineOptions &Opts) {
  DepGraphOptions D;
  D.AllowSpeculation = Opts.Perf.AllowSpeculation;
  return D;
}

void PipelineRun::countRuns(uint64_t N) const {
  if (Stats && N != 0)
    Stats->addCount(Prefix + "interp/runs", static_cast<double>(N));
}

Status PipelineRun::profileInto(const Function &F, const char *Side,
                                ProfiledRun &Out,
                                std::optional<RunState> *FinalOut) {
  PassTimer T(Stats, Prefix + "profile_" + Side);
  Out = ProfiledRun();
  Memory Mem = Program.InitMem;
  RunResult R;
  Expected<ProfileData> P = tryProfileRun(
      F, Mem, Program.InitRegs, &R, Opts.Simulate ? &Out.Trace : nullptr,
      sessionStepCap(Opts.InterpMaxSteps));
  countRuns(1);
  Status S = Status::success();
  if (P) {
    Out.Done = true;
    Out.Profile = P.takeValue();
    Out.Stats = R.Stats;
    if (Stats) {
      Stats->addCount(Prefix + "dyn_ops_" + Side,
                      static_cast<double>(Out.Stats.OpsDispatched));
      Stats->addCount(Prefix + "dyn_branches_" + Side,
                      static_cast<double>(Out.Stats.BranchesDispatched));
      // Exit coverage of the oracle's one input (ROADMAP O12): the
      // compensation blocks the treated run entered.
      if (std::string_view(Side) == "treated") {
        size_t Blocks = 0, Entered = 0;
        for (size_t I = 0; I < F.numBlocks(); ++I)
          if (F.block(I).isCompensation()) {
            ++Blocks;
            Entered += Out.Profile.blockEntries(F.block(I).getId()) != 0;
          }
        Stats->addCount(Prefix + "oracle/compensation_blocks",
                        static_cast<double>(Blocks));
        Stats->addCount(Prefix + "oracle/compensation_blocks_entered",
                        static_cast<double>(Entered));
      }
    }
  } else {
    Out = ProfiledRun(); // drop the partial trace
    S = Status::failure(P.takeDiagnostic());
  }
  if (FinalOut)
    *FinalOut = RunState{std::move(R), std::move(Mem)};
  return S;
}

const RunState &PipelineRun::baselineFinal() {
  if (!BaselineFinal) {
    BaselineFinal = recordRun(baseline(), Program.InitMem, Program.InitRegs,
                              sessionStepCap(Opts.InterpMaxSteps));
    countRuns(1);
  }
  return *BaselineFinal;
}

std::unique_ptr<FunctionAnalyses> PipelineRun::analyze(const Function &F,
                                                       const char *Side) {
  PassTimer T(Stats, Prefix + "analyses_" + Side);
  auto FA = std::make_unique<FunctionAnalyses>(
      F, Opts.Machines.empty() ? nullptr : &Opts.Machines.front(),
      graphOptions(Opts));
  T.stop();
  if (Stats && FA->Graphs && FA->Graphs->size() != 0)
    Stats->addCount(Prefix + "estimate/depgraphs_built",
                    static_cast<double>(FA->Graphs->size()));
  return FA;
}

const FunctionAnalyses &PipelineRun::baselineAnalyses() {
  requireLive("baselineAnalyses");
  if (!BaseFA)
    BaseFA = analyze(baseline(), "baseline");
  return *BaseFA;
}

const FunctionAnalyses &PipelineRun::treatedAnalyses() {
  requireLive("treatedAnalyses");
  if (!TreatedFA)
    TreatedFA = analyze(treated(), "treated");
  return *TreatedFA;
}

const ProfileData &PipelineRun::baselineProfile() {
  requireLive("baselineProfile");
  if (!BaseRun.Done)
    if (Status S = profileInto(baseline(), "baseline", BaseRun, &BaselineFinal);
        !S)
      reportFatalError(S.diagnostic().Message);
  return BaseRun.Profile;
}

const DynStats &PipelineRun::baselineDynStats() {
  baselineProfile();
  return BaseRun.Stats;
}

const BranchTrace &PipelineRun::baselineTrace() {
  if (!Opts.Simulate)
    reportFatalError("PipelineRun: baselineTrace requires Opts.Simulate");
  if (BaselineProfileInjected)
    reportFatalError("PipelineRun: no trace for an injected profile");
  baselineProfile();
  return BaseRun.Trace;
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
  Stats->addCount(Prefix + "cpr/liveness_partial_solves",
                  CPR.LivenessPartialSolves);
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
    LintDriver Linter(std::move(LintOpts));
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
    // Each CPR-block transaction's acceptance check: lint first, then,
    // only when lint passes, the oracle, which runs the candidate once,
    // under the session's step cap, against the baseline's final state.
    const bool CheckLint = Opts.Lint && Opts.FailSafe && BaselineLintClean;
    const bool CheckOracle = Opts.FailSafe && Opts.RegionEquivalence;
    if (CheckLint || CheckOracle)
      Ctx.RegionCheck = [&](const Function &Candidate) -> Status {
        if (CheckLint)
          if (Status S = lintStatus(
                  Linter.run(Candidate, nullptr, &Program.InitRegs));
              !S)
            return S;
        if (!CheckOracle)
          return Status::success();
        uint64_t Runs = 0;
        Status S = checkRegionEquivalence(
            Base, baselineFinal(), Candidate, Program.InitMem,
            Program.InitRegs, sessionStepCap(Opts.InterpMaxSteps), &Runs);
        countRuns(Runs);
        return S;
      };
    // The driver's phase timers, recorded under this session's prefix.
    StatsRegistry PhaseTimes;
    if (Stats)
      Ctx.Stats = &PhaseTimes;
    CPR = runControlCPR(*Treated, Profile, Opts.CPR, Ctx);
    T.stop();
    if (Stats)
      Stats->mergeFrom(PhaseTimes, Prefix);
    if (Opts.Lint) {
      treatedAnalyses(); // the transform is done mutating *Treated
      PassTimer LT(Stats, Prefix + "lint_treated");
      LintResult LR =
          Linter.run(*Treated, TreatedFA.get(), &Program.InitRegs);
      // On a lint-dirty input the findings repeat the baseline's, which
      // were reported above.
      if (Opts.Diags && BaselineLintClean)
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
    const RunState &BaseFinal = baselineFinal();
    // The oracle's run of the treated code is its profiling run, so
    // treatedProfile() is then a cache hit. A run that does not halt is no
    // profiling run, yet its state still decides the exit path: every run
    // of the session has the same step cap.
    std::optional<RunState> TreatedFinal;
    if (!TreatedRun.Done)
      (void)profileInto(TreatedF, "treated", TreatedRun, &TreatedFinal);
    PassTimer T(Stats, Prefix + "equivalence");
    uint64_t Runs = 0;
    Equivalence = checkAgainstBaseline(
        baseline(), BaseFinal, TreatedF,
        TreatedFinal ? &*TreatedFinal : nullptr, Program.InitMem,
        Program.InitRegs, &Runs, sessionStepCap(Opts.InterpMaxSteps));
    countRuns(Runs);
    EquivalenceDone = true;
    // The last oracle of the session: the region oracles ran in the
    // transform, before it.
    BaselineFinal.reset();
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
  if (!TreatedRun.Done)
    if (Status S = profileInto(treated(), "treated", TreatedRun); !S)
      reportFatalError(S.diagnostic().Message);
  return TreatedRun.Profile;
}

const DynStats &PipelineRun::treatedDynStats() {
  treatedProfile();
  return TreatedRun.Stats;
}

const BranchTrace &PipelineRun::treatedTrace() {
  if (!Opts.Simulate)
    reportFatalError("PipelineRun: treatedTrace requires Opts.Simulate");
  treatedProfile();
  return TreatedRun.Trace;
}

void PipelineRun::prepare() {
  if (Status S = tryPrepare(); !S)
    reportFatalError(S.diagnostic().Message);
}

Status PipelineRun::tryPrepare() {
  requireLive("tryPrepare");
  // The baseline's final state serves the oracles below; release it on
  // every way out.
  struct ReleaseFinal {
    std::optional<RunState> &State;
    ~ReleaseFinal() { State.reset(); }
  } Release{BaselineFinal};

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
    TreatedRun = BaseRun;
    return Status::success();
  };

  // Baseline profile, non-fatal: without it nothing downstream can run,
  // so a failure here fails the session.
  if (!BaseRun.Done)
    if (Status S = profileInto(baseline(), "baseline", BaseRun, &BaselineFinal);
        !S) {
      if (Opts.Diags)
        Opts.Diags->report(S.diagnostic());
      return S;
    }

  // Stage boundary: degrade before the transform even starts.
  if (Opts.FailSafe && !HaveTreated)
    if (DiagCode Code = ExpiryCode(); Code != DiagCode::None)
      return DegradeExpired(Code);

  // The oracle below may make the treated profiling run; the deadline
  // boundary after it is polled all the same.
  const bool TreatedProfilePending = !TreatedRun.Done;
  treated();
  if (Opts.CheckEquivalence)
    checkEquivalence(); // falls back (never fatal) when Opts.FailSafe

  // Stage boundary: the deadline may have expired mid-transform (or
  // during the oracle); degrade rather than hand the requester a result
  // it stopped waiting for.
  if (Opts.FailSafe && !FellBack && TreatedProfilePending)
    if (DiagCode Code = ExpiryCode(); Code != DiagCode::None)
      return DegradeExpired(Code);

  // Treated profile: an unprofilable treated function degrades to the
  // baseline (whose profile succeeded above) in fail-safe mode.
  for (int Attempt = 0; !TreatedRun.Done; ++Attempt) {
    Status S = profileInto(treated(), "treated", TreatedRun);
    if (S)
      break;
    const Diagnostic &D = S.diagnostic();
    if (!Opts.FailSafe || FellBack || Attempt > 0) {
      if (Opts.Diags)
        Opts.Diags->report(D);
      return S;
    }
    fallbackToBaseline(D.Code, D.Message, "interp.profile");
  }
  // Solve the shared analysis bundles serially, before the concurrent
  // per-machine stages consume them. A session without machines (cprd)
  // has no such stage, and its lint stage, if any, forces them itself.
  if (!Opts.Machines.empty()) {
    baselineAnalyses();
    treatedAnalyses();
  }
  return Status::success();
}

MachineComparison PipelineRun::estimateMachine(const MachineDesc &MD) const {
  assert(BaseRun.Done && HaveTreated && TreatedRun.Done &&
         "estimateMachine requires prepare()");
  PassTimer T(Stats, Prefix + "estimate/" + MD.getName());
  MachineComparison MC;
  MC.MachineName = MD.getName();
  // The shared analysis bundles were solved serially by prepare(), with
  // one dependence graph per block for the branch latency of
  // Opts.Machines' first machine. A machine of another latency builds its
  // own graphs for the blocks the profile entered, and a caller that
  // forced the stages by hand may have no bundles, in which case the
  // estimator also solves its own liveness (same result -- both are pure
  // functions of the IR).
  SimEstimate Base = estimatePerformance(
      *Program.Func, MD, BaseRun.Profile, Opts.Perf,
      BaseFA ? &BaseFA->LV : nullptr, BaseFA ? BaseFA->graphs() : nullptr);
  SimEstimate Treat = estimatePerformance(
      *Treated, MD, TreatedRun.Profile, Opts.Perf,
      TreatedFA ? &TreatedFA->LV : nullptr,
      TreatedFA ? TreatedFA->graphs() : nullptr);
  MC.BaselineCycles = Base.TotalCycles;
  MC.TreatedCycles = Treat.TotalCycles;
  T.stop();
  if (Stats) {
    if (size_t Built = Base.DepGraphsBuilt + Treat.DepGraphsBuilt)
      Stats->addCount(Prefix + "estimate/depgraphs_built",
                      static_cast<double>(Built));
    Stats->addCount(Prefix + "estimate/" + MD.getName() + "/cycles_baseline",
                    MC.BaselineCycles);
    Stats->addCount(Prefix + "estimate/" + MD.getName() + "/cycles_treated",
                    MC.TreatedCycles);
  }
  return MC;
}

std::unique_ptr<PipelineRun::ReplaySlot[]> PipelineRun::makeReplaySlots() {
  return std::make_unique<ReplaySlot[]>(predictorRegistry().size());
}

TraceReplay PipelineRun::replay(const Function &F, const ProfiledRun &Run,
                                PredictorKind K,
                                const FrontendOptions &FE) const {
  PredictorConfig C;
  C.Profile = &Run.Profile;
  std::unique_ptr<BranchPredictor> P = makePredictor(K, C);
  if (Stats)
    Stats->addCount(Prefix + "sim/replays", 1);
  return replayTrace(F, Run.Trace, *P, FE);
}

const TraceReplay &PipelineRun::sharedReplay(ReplaySlot *Slots,
                                             const Function &F,
                                             const ProfiledRun &Run,
                                             PredictorKind K) const {
  assert(static_cast<size_t>(K) < predictorRegistry().size());
  ReplaySlot &Slot = Slots[static_cast<size_t>(K)];
  std::call_once(Slot.Once,
                 [&] { Slot.Replay = replay(F, Run, K, Opts.Frontend); });
  return Slot.Replay;
}

SimComparison PipelineRun::simulate(const MachineDesc &MD,
                                    PredictorKind K) const {
  return simulate(MD, K, Opts.Frontend);
}

SimComparison PipelineRun::simulate(const MachineDesc &MD, PredictorKind K,
                                    const FrontendOptions &FE,
                                    const std::string &CellName) const {
  assert(Opts.Simulate && "simulate requires Opts.Simulate");
  assert(BaseRun.Done && HaveTreated && TreatedRun.Done &&
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

  // The replays depend on the BTB geometry but not on the machine: every
  // call with Opts.Frontend's BTB setting prices the session's, others
  // replay on their own.
  std::optional<TraceReplay> OwnBase, OwnTreated;
  const TraceReplay *RB, *RT;
  if (FE.UseBTB == Opts.Frontend.UseBTB &&
      (!FE.UseBTB || FE.BTB == Opts.Frontend.BTB)) {
    RB = &sharedReplay(BaseReplays.get(), *Program.Func, BaseRun, K);
    RT = &sharedReplay(TreatedReplays.get(), *Treated, TreatedRun, K);
  } else {
    RB = &OwnBase.emplace(replay(*Program.Func, BaseRun, K, FE));
    RT = &OwnTreated.emplace(replay(*Treated, TreatedRun, K, FE));
  }
  // Like estimateMachine: the shared bundles and their graphs when
  // prepare() built them and they fit MD, else the pricing builds its
  // own.
  SC.Baseline = priceReplay(*RB, *Program.Func, MD, SO,
                            BaseFA ? &BaseFA->LV : nullptr,
                            BaseFA ? BaseFA->graphs() : nullptr);
  SC.Treated = priceReplay(*RT, *Treated, MD, SO,
                           TreatedFA ? &TreatedFA->LV : nullptr,
                           TreatedFA ? TreatedFA->graphs() : nullptr);

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
  Res.DynBaseline = BaseRun.Stats;
  Res.DynTreated = TreatedRun.Stats;
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
