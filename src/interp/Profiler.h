//===- interp/Profiler.h - Interpreter-driven profiling ---------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience wrappers: profile a function by running it, and check two
/// functions for observational equivalence on identical inputs (the
/// correctness oracle of the transformation property tests).
///
/// The oracle compares final run states (RunState). A state recorded once
/// -- by a profiling run, or by recordRun -- can stand in for a fresh run
/// of the same function on the same inputs under the same step cap, so a
/// caller that checks many candidates against one baseline, or that
/// profiles the candidate anyway, pays one interpreter run per candidate
/// instead of two.
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_PROFILER_H
#define INTERP_PROFILER_H

#include "interp/Interpreter.h"
#include "support/Diagnostic.h"

namespace cpr {

/// Runs \p F once and returns its profile. \p Mem is mutated.
/// Aborts if the run does not halt cleanly. When \p TraceOut is non-null
/// the run's branch stream is recorded there as well.
ProfileData profileRun(const Function &F, Memory &Mem,
                       const std::vector<RegBinding> &InitRegs,
                       DynStats *StatsOut = nullptr,
                       BranchTrace *TraceOut = nullptr);

/// Non-fatal, budget-aware form of profileRun (docs/ROBUSTNESS.md). A run
/// that hits the step cap comes back as a BudgetExhausted diagnostic, any
/// other non-halt as RunFailed; both at site "interp.profile".
/// \p MaxSteps of 0 keeps the interpreter's default cap. \p RunOut, when
/// non-null, receives the run's result (exit status, steps, dynamic
/// counts, observable registers) whether or not it halted; \p Mem holds
/// its final memory.
Expected<ProfileData> tryProfileRun(const Function &F, Memory &Mem,
                                    const std::vector<RegBinding> &InitRegs,
                                    RunResult *RunOut = nullptr,
                                    BranchTrace *TraceOut = nullptr,
                                    uint64_t MaxSteps = 0);

/// The final state of one run, as the equivalence oracle compares it. A
/// state recorded once -- by a profiling run, or by recordRun -- stands in
/// for a fresh run of the same function on the same inputs under the same
/// step cap.
struct RunState {
  RunResult Result; ///< exit status, steps, observable registers
  Memory Mem;       ///< final memory
};

/// Runs \p F once from \p InitMem and \p InitRegs under a step cap of
/// \p MaxSteps (0 = DefaultMaxSteps) and returns its final state.
RunState recordRun(const Function &F, const Memory &InitMem,
                   const std::vector<RegBinding> &InitRegs,
                   uint64_t MaxSteps = 0);

/// The step cap of every interpreter run a session makes when its
/// PipelineOptions::InterpMaxSteps is \p InterpMaxSteps: that cap, or
/// DefaultMaxSteps when it is 0.
uint64_t sessionStepCap(uint64_t InterpMaxSteps);

/// Result of an equivalence comparison. On a mismatch, \c Detail names the
/// first diverging artifact -- the exit path, an observable register (by
/// name, with both values), or the lowest diverging memory address (with
/// each run's last store to it) -- deterministically, so fuzz findings and
/// `cprc --check-equivalence` failures are directly triageable.
struct EquivResult {
  /// Which kind of artifact diverged first. Comparison order is fixed:
  /// exit path, then observable registers, then memory.
  enum class Divergence {
    None,     ///< equivalent
    ExitPath, ///< halt/trap/error status differs
    Register, ///< an observable register value differs
    Memory,   ///< a memory cell reads differently after the runs
  };

  bool Equivalent = false;
  Divergence Kind = Divergence::None;
  std::string Detail; ///< human-readable mismatch description
};

/// Name of \p Kind for reports ("exit-path", "register", ...).
const char *divergenceName(EquivResult::Divergence Kind);

/// Compares the final states of runs of \p A and \p B from identical
/// inputs: halt status, observable register values, and final memory (in
/// that order). \p StoresA and \p StoresB are the runs' store traces; a
/// memory divergence names each run's last store to the address, or no
/// store when the traces are absent.
EquivResult compareRuns(const Function &A, const RunState &SA,
                        const Function &B, const RunState &SB,
                        const std::vector<StoreEvent> *StoresA = nullptr,
                        const std::vector<StoreEvent> *StoresB = nullptr);

/// Runs \p A and \p B from identical initial memory (\p Mem, copied) and
/// register bindings under a step cap of \p MaxSteps (0 =
/// DefaultMaxSteps), recording their stores, then compares them with
/// compareRuns.
EquivResult checkEquivalence(const Function &A, const Function &B,
                             const Memory &Mem,
                             const std::vector<RegBinding> &InitRegs,
                             uint64_t MaxSteps = 0);

/// The oracle's verdict on \p Candidate against \p Baseline from \p InitMem
/// and \p InitRegs, given the baseline's recorded final state
/// \p BaselineFinal and, when one exists, the candidate's
/// (\p CandidateFinal; null runs the candidate once). Every state must
/// come from a run under \p MaxSteps (0 = DefaultMaxSteps), the cap of the
/// runs this makes. A memory divergence, whose detail names each run's
/// last store to the address, is re-derived by checkEquivalence, so the
/// result always equals checkEquivalence's under that cap. Adds the
/// interpreter runs it makes to \p Runs when given.
EquivResult checkAgainstBaseline(const Function &Baseline,
                                 const RunState &BaselineFinal,
                                 const Function &Candidate,
                                 const RunState *CandidateFinal,
                                 const Memory &InitMem,
                                 const std::vector<RegBinding> &InitRegs,
                                 uint64_t *Runs = nullptr,
                                 uint64_t MaxSteps = 0);

/// The per-region equivalence re-check (part of CPRContext::RegionCheck,
/// docs/ROBUSTNESS.md): checkAgainstBaseline of one fresh run of
/// \p Candidate under a step cap of \p MaxSteps (0 = DefaultMaxSteps), the
/// cap \p BaselineFinal was recorded under, as a Status at fault site
/// "interp.oracle". A mismatch is an OracleMismatch
/// error there; so is a candidate the cap stops where the baseline halted.
Status checkRegionEquivalence(const Function &Baseline,
                              const RunState &BaselineFinal,
                              const Function &Candidate,
                              const Memory &InitMem,
                              const std::vector<RegBinding> &InitRegs,
                              uint64_t MaxSteps, uint64_t *Runs = nullptr);

} // namespace cpr

#endif // INTERP_PROFILER_H
