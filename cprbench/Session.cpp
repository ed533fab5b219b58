//===- cprbench/Session.cpp - One traced pipeline session -----------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "Session.h"

#include "Bench.h"
#include "Trace.h"

#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "sched/ListScheduler.h"
#include "support/Error.h"
#include "support/Hash.h"
#include "support/Statistics.h"

#include <optional>

using namespace cpr;
using namespace cprbench;

void cprbench::replayEstimate(const Function &Baseline,
                              const Function &Treated,
                              const PipelineOptions &Opts) {
  DepGraphOptions DOpts;
  DOpts.AllowSpeculation = Opts.Perf.AllowSpeculation;
  for (const Function *FP : {&Baseline, &Treated}) {
    const Function &F = *FP;
    std::optional<Liveness> LV;
    {
      ScopedSpan S("analysis.liveness");
      LV.emplace(F);
    }
    for (const MachineDesc &MD : Opts.Machines)
      for (size_t BI = 0; BI < F.numBlocks(); ++BI) {
        const Block &B = F.block(BI);
        if (B.empty())
          continue;
        std::optional<RegionPQS> PQS;
        {
          ScopedSpan S("analysis.pqs");
          PQS.emplace(F, B);
        }
        std::optional<DepGraph> DG;
        {
          ScopedSpan S("analysis.depgraph");
          DG.emplace(F, B, MD, *PQS, *LV, DOpts);
        }
        ScopedSpan S("sched.list_schedule");
        Schedule Sched = scheduleBlock(B, *DG, MD);
        (void)Sched;
      }
  }
}

void cprbench::fillQuality(const std::vector<SessionResult> &Results,
                           EndToEnd &E) {
  std::vector<double> Speedups;
  double SB = 0, ST = 0, DB = 0, DT = 0;
  for (const SessionResult &R : Results) {
    for (double S : R.Speedups)
      if (S > 0.0)
        Speedups.push_back(S);
    SB += static_cast<double>(R.StaticOpsBaseline);
    ST += static_cast<double>(R.StaticOpsTreated);
    DB += static_cast<double>(R.DynOpsBaseline);
    DT += static_cast<double>(R.DynOpsTreated);
  }
  E.SpeedupGmean = geometricMean(Speedups);
  E.CodeSizeRatio = SB > 0 ? ST / SB : 0.0;
  E.DynOpRatio = DB > 0 ? DT / DB : 0.0;
}

void cprbench::fillReplayMetrics(const std::vector<Span> &Spans,
                                 LayerValues &L) {
  std::vector<PassProfile> Replay = profilePasses(Spans, "replay");
  if (Replay.empty())
    return;
  const PassProfile &R = Replay.front();
  double Parts = 0;
  for (const char *Name :
       {"analysis.pqs", "analysis.depgraph", "sched.list_schedule"})
    Parts += L[std::string(Name) + "_ms"] = R.layerMs(Name);
  double Est = L["sched.estimate_ms"];
  L["sched.replay_coverage"] = Est > 0 ? Parts / Est : 0.0;
}

namespace {

void hashCPR(Hasher &H, const CPRResult &R) {
  for (unsigned V :
       {R.RegionsProcessed, R.CPRBlocksFormed, R.CPRBlocksTransformed,
        R.TakenVariants, R.BranchesCovered, R.Promoted, R.Demoted,
        R.LookaheadsInserted, R.OpsMovedOffTrace, R.OpsSplit,
        R.BlocksRolledBack, R.RegionsRolledBack, R.RegionsSkippedBudget})
    H.u64(V);
  for (unsigned V : R.StopReasons)
    H.u64(V);
}

/// The compiler's stages, in their fixed order. Throws FatalError (the
/// caller's trap) on a compiler abort, and on an oracle mismatch unless
/// the options are fail-safe, in which case the session falls back.
void runStages(SessionSpec &Spec, PipelineRun &Run, SessionResult &R,
               Hasher &H) {
  const PipelineOptions &Opts = Spec.Opts;
  {
    ScopedSpan S("interp.profile");
    R.DynOpsBaseline = Run.baselineDynStats().OpsDispatched;
  }
  if (Spec.Treated)
    Run.setTreated(std::move(Spec.Treated));
  {
    ScopedSpan S("cpr.transform");
    Run.treated();
  }
  {
    ScopedSpan S("interp.oracle");
    Run.checkEquivalence();
  }
  {
    ScopedSpan S("interp.profile");
    R.DynOpsTreated = Run.treatedDynStats().OpsDispatched;
  }
  {
    ScopedSpan S("analysis.function_analyses");
    Run.baselineAnalyses();
    Run.treatedAnalyses();
  }
  for (const MachineDesc &MD : Opts.Machines) {
    ScopedSpan S(internName("sched.estimate." + MD.getName()));
    MachineComparison MC = Run.estimateMachine(MD);
    H.f64(MC.BaselineCycles).f64(MC.TreatedCycles);
    if (!Opts.Simulate)
      R.Speedups.push_back(MC.speedup());
  }
  if (Opts.Simulate)
    for (const MachineDesc &MD : Opts.Machines) {
      ScopedSpan S(internName("sim.simulate." + MD.getName()));
      SimComparison SC = Run.simulate(MD, Opts.Predictors.front());
      H.f64(SC.Baseline.TotalCycles).f64(SC.Treated.TotalCycles);
      H.u64(SC.Treated.Mispredicts);
      R.Speedups.push_back(SC.speedup());
      R.SimBranches += SC.Baseline.Branches + SC.Treated.Branches;
      R.SimMispredictsTreated += SC.Treated.Mispredicts;
      R.SimOpsTreated += SC.Treated.OpsDispatched;
    }
  // Read last: a fallback zeroes the counters of the abandoned transform.
  R.FellBack = Run.fellBack();
  R.CPR = Run.cprResult();
}

/// Checks outside the timed part: the treated IR must survive a print /
/// parse / verify / print round trip unchanged, and every cycle count must
/// be positive. Returns an error message or "".
std::string checkTreated(const SessionSpec &Spec, PipelineRun &Run,
                         SessionResult &R, Hasher &H) {
  const Function &Treated = Run.treated();
  std::string Text;
  {
    ScopedSpan S("ir.serialize");
    Text = printFunction(Treated);
  }
  R.TreatedIRBytes = Text.size();
  H.str(Text);
  ParseResult PR;
  {
    ScopedSpan S("ir.parse");
    PR = parseFunction(Text);
  }
  if (!PR)
    return "treated IR does not parse back: " + PR.Error;
  std::vector<std::string> Violations;
  {
    ScopedSpan S("ir.verify");
    Violations = verifyFunction(*PR.Func);
  }
  if (!Violations.empty())
    return "treated IR fails verification: " + Violations.front();
  {
    ScopedSpan S("ir.serialize");
    if (printFunction(*PR.Func) != Text)
      return "treated IR does not print back identically";
  }
  if (Spec.KeepTreated)
    R.Treated = std::move(PR.Func);

  R.StaticOpsBaseline = Run.baseline().totalOps();
  R.StaticOpsTreated = Treated.totalOps();
  for (double S : R.Speedups)
    if (!(S > 0.0))
      return "non-positive cycle estimate";
  hashCPR(H, R.CPR);
  H.u64(R.DynOpsBaseline).u64(R.DynOpsTreated).u64(R.FellBack ? 1 : 0);
  return "";
}

} // namespace

SessionResult cprbench::runSession(SessionSpec &Spec, uint64_t Id) {
  ScopedSpan Session("session", static_cast<int64_t>(Id));
  SessionResult R;
  Hasher H;
  std::string Error;
  try {
    ScopedFatalErrorTrap Trap;
    KernelProgram Input;
    {
      ScopedSpan S("ir.clone");
      Input = cloneProgram(*Spec.Program);
    }
    double Cpu0 = threadCpuMs();
    std::unique_ptr<PipelineRun> Run;
    {
      ScopedSpan S("ir.verify"); // the session verifies its input
      Run = std::make_unique<PipelineRun>(std::move(Input), Spec.Opts);
    }
    runStages(Spec, *Run, R, H);
    R.CpuMs = threadCpuMs() - Cpu0;
    Error = checkTreated(Spec, *Run, R, H);
    ScopedSpan S("ir.free");
    Run.reset();
  } catch (const FatalError &E) {
    Error = "fatal: " + E.message();
  }
  R.Ok = Error.empty();
  R.Error = std::move(Error);
  R.Digest = H.digest();
  return R;
}
