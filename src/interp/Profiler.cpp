//===- interp/Profiler.cpp - Interpreter-driven profiling -----------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Profiler.h"

#include "support/Error.h"
#include "support/FaultInjector.h"

#include <algorithm>

using namespace cpr;

ProfileData cpr::profileRun(const Function &F, Memory &Mem,
                            const std::vector<RegBinding> &InitRegs,
                            DynStats *StatsOut, BranchTrace *TraceOut) {
  RunResult R;
  Expected<ProfileData> P = tryProfileRun(F, Mem, InitRegs, &R, TraceOut);
  if (!P)
    reportFatalError(P.diagnostic().Message);
  if (StatsOut)
    *StatsOut = R.Stats;
  return P.takeValue();
}

Expected<ProfileData> cpr::tryProfileRun(const Function &F, Memory &Mem,
                                         const std::vector<RegBinding> &InitRegs,
                                         RunResult *RunOut,
                                         BranchTrace *TraceOut,
                                         uint64_t MaxSteps) {
  ProfileData Profile;
  InterpOptions Opts;
  Opts.Profile = &Profile;
  Opts.Trace = TraceOut;
  if (MaxSteps != 0)
    Opts.MaxSteps = MaxSteps;
  RunResult Local;
  RunResult &R = RunOut ? *RunOut : Local;
  R = interpret(F, Mem, InitRegs, Opts);
  if (!R.halted()) {
    if (R.St == RunResult::Status::StepLimit)
      return Status::error(DiagCode::BudgetExhausted,
                           "profiling run of @" + F.getName() +
                               " exhausted its step budget (" +
                               std::to_string(Opts.MaxSteps) + " steps)",
                           "interp.profile");
    return Status::error(DiagCode::RunFailed,
                         "profiling run of @" + F.getName() +
                             " did not halt: " + R.ErrorMsg,
                         "interp.profile");
  }
  return Profile;
}

RunState cpr::recordRun(const Function &F, const Memory &InitMem,
                        const std::vector<RegBinding> &InitRegs,
                        uint64_t MaxSteps) {
  RunState S;
  S.Mem = InitMem;
  InterpOptions Opts;
  if (MaxSteps != 0)
    Opts.MaxSteps = MaxSteps;
  S.Result = interpret(F, S.Mem, InitRegs, Opts);
  return S;
}

uint64_t cpr::sessionStepCap(uint64_t InterpMaxSteps) {
  return InterpMaxSteps != 0 ? InterpMaxSteps : DefaultMaxSteps;
}

const char *cpr::divergenceName(EquivResult::Divergence Kind) {
  switch (Kind) {
  case EquivResult::Divergence::None:
    return "none";
  case EquivResult::Divergence::ExitPath:
    return "exit-path";
  case EquivResult::Divergence::Register:
    return "register";
  case EquivResult::Divergence::Memory:
    return "memory";
  }
  return "unknown";
}

namespace {

std::string describeExit(const RunResult &R) {
  switch (R.St) {
  case RunResult::Status::Halted:
    return "halted";
  case RunResult::Status::Trapped:
    return "trapped (compensation canary)";
  case RunResult::Status::StepLimit:
    return "hit the step limit";
  case RunResult::Status::Error:
    return "errored: " + R.ErrorMsg;
  }
  return "unknown";
}

/// The last store either run issued to \p Addr, as triage detail for a
/// memory divergence ("who wrote this last, and what").
std::string describeLastStore(const std::vector<StoreEvent> &Trace,
                              int64_t Addr) {
  for (size_t I = Trace.size(); I-- > 0;)
    if (Trace[I].Addr == Addr)
      return "store #" + std::to_string(I) + " (op id " +
             std::to_string(Trace[I].Op) + ") wrote " +
             std::to_string(Trace[I].Value);
  return "never stored (initial value)";
}

} // namespace

EquivResult cpr::compareRuns(const Function &A, const RunState &SA,
                             const Function &B, const RunState &SB,
                             const std::vector<StoreEvent> *StoresA,
                             const std::vector<StoreEvent> *StoresB) {
  EquivResult Res;
  const RunResult &RA = SA.Result;
  const RunResult &RB = SB.Result;
  if (RA.St != RB.St) {
    Res.Kind = EquivResult::Divergence::ExitPath;
    Res.Detail = "exit path differs: @" + A.getName() + " " +
                 describeExit(RA) + " after " + std::to_string(RA.Steps) +
                 " steps vs @" + B.getName() + " " + describeExit(RB) +
                 " after " + std::to_string(RB.Steps) + " steps";
    return Res;
  }
  if (RA.St != RunResult::Status::Halted) {
    Res.Kind = EquivResult::Divergence::ExitPath;
    Res.Detail = "both runs failed to halt: " + RA.ErrorMsg;
    return Res;
  }
  if (RA.Observed != RB.Observed) {
    Res.Kind = EquivResult::Divergence::Register;
    // Name the first diverging observable. The lists follow
    // observableRegs() order, which both functions share (the treated
    // code keeps the baseline's observables).
    size_t N = std::min(RA.Observed.size(), RB.Observed.size());
    for (size_t I = 0; I < N; ++I) {
      if (RA.Observed[I] != RB.Observed[I]) {
        std::string Name = I < A.observableRegs().size()
                               ? A.observableRegs()[I].str()
                               : "#" + std::to_string(I);
        Res.Detail = "observable " + Name + " differs: " +
                     std::to_string(RA.Observed[I]) + " vs " +
                     std::to_string(RB.Observed[I]);
        return Res;
      }
    }
    Res.Detail = "observable register count differs: " +
                 std::to_string(RA.Observed.size()) + " vs " +
                 std::to_string(RB.Observed.size());
    return Res;
  }
  // Semantic memory comparison: the lowest address at which the final
  // memories read differently (a write of zero to an otherwise-untouched
  // cell is equivalent to no write), so the diagnostic is deterministic.
  const Memory &MemA = SA.Mem;
  const Memory &MemB = SB.Mem;
  if (std::optional<int64_t> Diverging = MemA.firstDifference(MemB)) {
    int64_t DivergingAddr = *Diverging;
    Res.Kind = EquivResult::Divergence::Memory;
    Res.Detail = "memory differs at address " +
                 std::to_string(DivergingAddr) + ": " +
                 std::to_string(MemA.load(DivergingAddr)) + " vs " +
                 std::to_string(MemB.load(DivergingAddr));
    if (StoresA && StoresB)
      Res.Detail += "; @" + A.getName() + " " +
                    describeLastStore(*StoresA, DivergingAddr) + ", @" +
                    B.getName() + " " +
                    describeLastStore(*StoresB, DivergingAddr);
    return Res;
  }
  Res.Equivalent = true;
  return Res;
}

EquivResult cpr::checkEquivalence(const Function &A, const Function &B,
                                  const Memory &Mem,
                                  const std::vector<RegBinding> &InitRegs,
                                  uint64_t MaxSteps) {
  RunState SA, SB;
  SA.Mem = Mem;
  SB.Mem = Mem;
  std::vector<StoreEvent> StoresA, StoresB;
  InterpOptions OptsA, OptsB;
  OptsA.StoreTrace = &StoresA;
  OptsB.StoreTrace = &StoresB;
  if (MaxSteps != 0)
    OptsA.MaxSteps = OptsB.MaxSteps = MaxSteps;
  SA.Result = interpret(A, SA.Mem, InitRegs, OptsA);
  SB.Result = interpret(B, SB.Mem, InitRegs, OptsB);
  return compareRuns(A, SA, B, SB, &StoresA, &StoresB);
}

EquivResult cpr::checkAgainstBaseline(const Function &Baseline,
                                      const RunState &BaselineFinal,
                                      const Function &Candidate,
                                      const RunState *CandidateFinal,
                                      const Memory &InitMem,
                                      const std::vector<RegBinding> &InitRegs,
                                      uint64_t *Runs, uint64_t MaxSteps) {
  uint64_t Made = 0;
  RunState Fresh;
  if (!CandidateFinal) {
    Fresh = recordRun(Candidate, InitMem, InitRegs, MaxSteps);
    CandidateFinal = &Fresh;
    ++Made;
  }
  EquivResult E =
      compareRuns(Baseline, BaselineFinal, Candidate, *CandidateFinal);
  // Only a memory divergence's detail needs what the recorded states
  // lack: each run's store trace.
  if (E.Kind == EquivResult::Divergence::Memory) {
    E = checkEquivalence(Baseline, Candidate, InitMem, InitRegs, MaxSteps);
    Made += 2;
  }
  if (Runs)
    *Runs += Made;
  return E;
}

Status cpr::checkRegionEquivalence(const Function &Baseline,
                                   const RunState &BaselineFinal,
                                   const Function &Candidate,
                                   const Memory &InitMem,
                                   const std::vector<RegBinding> &InitRegs,
                                   uint64_t MaxSteps, uint64_t *Runs) {
  if (fault::shouldFail("interp.oracle"))
    return Status::error(DiagCode::OracleMismatch, "injected fault",
                         "interp.oracle");
  RunState Fresh = recordRun(Candidate, InitMem, InitRegs, MaxSteps);
  if (Runs)
    ++*Runs;
  EquivResult E = checkAgainstBaseline(Baseline, BaselineFinal, Candidate,
                                       &Fresh, InitMem, InitRegs, Runs,
                                       MaxSteps);
  if (!E.Equivalent)
    return Status::error(DiagCode::OracleMismatch,
                         "region equivalence re-check failed [" +
                             std::string(divergenceName(E.Kind)) +
                             "]: " + E.Detail,
                         "interp.oracle");
  return Status::success();
}
