//===- pipeline/PipelineRun.h - Stage-based pipeline session ----*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged form of the experimental harness. A PipelineRun is one
/// measurement session over one program, decomposed into explicit stages
/// whose intermediate artifacts are computed once and then shared by
/// every downstream consumer:
///
///   prepare (unroll)                           [serial]
///     -> profileBaseline  (profile + trace,    [serial]
///                          final state)
///     -> transform        (FRP + ICBM + DCE)   [serial]
///     -> checkEquivalence (interpreter oracle) [serial]
///        = profileTreated (profile + trace,
///                          final state)
///     -> analyses         (liveness + one      [serial, only with
///                          graph per block)     machines]
///     -> estimateMachine(M)                    [parallel over machines]
///     -> simulate(M, P)                        [parallel over machine x
///          = replay (once per side x P)         predictor]
///            + price on M
///
/// Each side is interpreted once, and each side's trace goes through each
/// predictor once: simulate() prices on its machine a replay
/// (sim/TraceSimulator.h) that every machine shares, kept per side and
/// predictor for Opts.Frontend's BTB setting; a call with another BTB
/// setting replays on its own. The profiling runs keep their final
/// state (interp/Profiler.h, RunState), so the oracle runs the treated
/// function once, as its profiling run, and compares it with the
/// baseline's; the per-region re-check (Opts.RegionEquivalence) runs each
/// candidate once. Where the baseline profiling run left no state (an
/// injected profile) one run records it. The baseline's state is held
/// until the oracle has compared it, or until prepare() or tryPrepare()
/// returns. Every interpreter run of the session -- profiling, oracle and
/// region re-check alike -- has one step cap,
/// sessionStepCap(Opts.InterpMaxSteps), so a recorded state always stands
/// in for the run it replaces.
///
/// Stage accessors are lazy: asking for an artifact runs the stages it
/// depends on (once) and caches the result, so a caller that only wants
/// a profile pays for nothing else. Artifacts can also be injected
/// (setBaselineProfile, setTreated) to resume a session from externally
/// produced inputs -- a saved profile, or a transformation done by other
/// means -- with the untouched stages still usable.
///
/// Thread-safety contract: the serial stage accessors and prepare() must
/// be called from one thread at a time. After prepare() has returned (or
/// all serial artifacts have been forced), estimateMachine() and
/// simulate() are const over shared immutable artifacts and safe to call
/// concurrently from many threads, without locking the session: every
/// machine of Opts.Machines.front()'s branch latency schedules the
/// dependence graphs the analyses stage built once per side, others
/// build their own, and each call builds its own schedules. The first
/// simulate() of a side and predictor replays under a once-flag; every
/// later one, on any thread, prices that replay without a lock.
/// finish() is terminal: it forces everything, optionally fanning
/// the per-machine / per-predictor stages out on a ThreadPool, and moves
/// the treated function into the returned PipelineResult.
///
/// Every stage reports wall time and outcome counters into an optional
/// StatsRegistry (see support/Statistics.h for the determinism rules).
///
//===----------------------------------------------------------------------===//

#ifndef PIPELINE_PIPELINERUN_H
#define PIPELINE_PIPELINERUN_H

#include "interp/Profiler.h"
#include "pipeline/CompilerPipeline.h"

#include <mutex>
#include <optional>

namespace cpr {

struct FunctionAnalyses;
class ThreadPool;

/// One stage-based measurement session over one program.
class PipelineRun {
public:
  /// Takes ownership of \p Program. \p Stats (optional, may outlive many
  /// sessions) receives counters/times under keys prefixed with
  /// \p StatsPrefix.
  explicit PipelineRun(KernelProgram Program,
                       PipelineOptions Opts = PipelineOptions(),
                       StatsRegistry *Stats = nullptr,
                       std::string StatsPrefix = "");
  /// Out of line: members hold types only PipelineRun.cpp completes.
  ~PipelineRun();

  const PipelineOptions &options() const { return Opts; }
  const std::string &name() const { return Name; }

  /// --- Artifact injection (before the corresponding stage runs) -------
  /// Supplies a profile for the baseline (e.g. parsed from ProfileIO
  /// text), skipping the baseline profiling run. Dynamic baseline stats
  /// and the baseline trace are then unavailable unless re-profiled by a
  /// later stage; simulation requires traced profiling runs, so sessions
  /// with injected profiles cannot simulate the baseline.
  void setBaselineProfile(ProfileData Profile);

  /// Supplies the treated function (e.g. a phase experiment's output),
  /// skipping the transform stage; cprResult() is then all-zero.
  void setTreated(std::unique_ptr<Function> Treated);

  /// --- Serial stages (lazy, cached, single-threaded) ------------------
  /// The prepared baseline: the input after optional unrolling.
  const Function &baseline();
  /// Profile of the prepared baseline (stage: profile-baseline).
  const ProfileData &baselineProfile();
  /// Dynamic op counts of the baseline profiling run.
  const DynStats &baselineDynStats();
  /// Branch trace of the baseline profiling run (Opts.Simulate only).
  const BranchTrace &baselineTrace();
  /// The height-reduced function (stage: transform).
  const Function &treated();
  /// Transformation outcome counters (zero when treated was injected).
  const CPRResult &cprResult();
  /// Runs the observational-equivalence oracle once; fatal on mismatch.
  void checkEquivalence();
  /// Non-fatal form of the oracle for callers that triage mismatches
  /// themselves (the differential fuzzer). Cached like every stage. The
  /// treated run it makes is the treated profiling run; a run that does
  /// not halt is the oracle's exit-path mismatch, not a profiling failure.
  const EquivResult &checkEquivalenceResult();
  /// Profile of the treated function (stage: profile-treated).
  const ProfileData &treatedProfile();
  const DynStats &treatedDynStats();
  const BranchTrace &treatedTrace();

  /// Solved whole-function liveness (analysis/AnalysisCache.h) of the
  /// prepared baseline / treated function, with one dependence graph per
  /// non-empty block for the branch latency of Opts.Machines.front()
  /// (none when it is empty): computed once, serially, then shared const
  /// by the lint stage, the estimates and the simulations. prepare()
  /// forces them only when Opts.Machines is non-empty. Pure functions of
  /// the IR, so sharing never changes any downstream output.
  const FunctionAnalyses &baselineAnalyses();
  const FunctionAnalyses &treatedAnalyses();

  /// Forces every serial stage above (honoring Opts.CheckEquivalence):
  /// tryPrepare(), with a failure fatal.
  void prepare();

  /// Non-fatal form of prepare() (docs/ROBUSTNESS.md): a profiling run
  /// that does not halt under the session's step cap comes back as a
  /// diagnostic instead of aborting. A failed *baseline* profile makes
  /// the whole session unusable and is returned; everything downstream
  /// degrades -- failing CPR regions roll back, an equivalence mismatch
  /// or unprofilable treated function falls back to the baseline -- and
  /// still returns success. Most useful with Opts.FailSafe; in strict
  /// mode only the profiling runs gain the non-fatal treatment.
  Status tryPrepare();

  /// Whether a fail-safe stage fell the session back to the untreated
  /// baseline (the treated function is a baseline clone).
  bool fellBack() const { return FellBack; }

  /// --- Concurrent stages (const; require prepare()) -------------------
  /// Static-schedule cycle comparison on \p MD.
  MachineComparison estimateMachine(const MachineDesc &MD) const;
  /// Trace-driven dynamic comparison on \p MD under predictor \p K,
  /// using Opts.Frontend for the frontend cost model.
  SimComparison simulate(const MachineDesc &MD, PredictorKind K) const;
  /// Same, with an explicit frontend configuration -- lets one prepared
  /// session sweep several BTB/fetch geometries without re-profiling
  /// (pipeline/Reports.h's runFrontendSweep). \p CellName, when
  /// non-empty, distinguishes the stats keys of different frontend
  /// configurations of the same (machine, predictor) pair.
  SimComparison simulate(const MachineDesc &MD, PredictorKind K,
                         const FrontendOptions &FE,
                         const std::string &CellName = "") const;

  /// --- Terminal -------------------------------------------------------
  /// Runs the whole cross-product (machines, and machine x predictor
  /// when Opts.Simulate) -- on \p Pool when given, inline otherwise --
  /// and assembles the legacy PipelineResult. The treated function is
  /// moved into the result; the session is then *poisoned* -- any further
  /// stage access (or a second finish()) is a fatal error rather than a
  /// silent use-after-move.
  PipelineResult finish(ThreadPool *Pool = nullptr);

private:
  /// One side's profiling run and what it left behind.
  struct ProfiledRun {
    bool Done = false;
    ProfileData Profile;
    DynStats Stats;
    BranchTrace Trace;
  };

  /// Profiles \p F into \p Out under the session's step cap and reports
  /// it as side \p Side ("baseline" or "treated"). A run that does not
  /// halt leaves \p Out empty and comes back as its diagnostic; callers
  /// decide whether that is fatal. When \p FinalOut is given, the run's
  /// final state lands there, halted or not.
  Status profileInto(const Function &F, const char *Side, ProfiledRun &Out,
                     std::optional<RunState> *FinalOut = nullptr);
  /// The baseline's final state for the oracles: the baseline profiling
  /// run's, or, where that run left none (an injected profile, a state
  /// already released), one recorded now.
  const RunState &baselineFinal();
  /// Solves \p F's analysis bundle, with its dependence graphs for
  /// Opts.Machines, as side \p Side.
  std::unique_ptr<FunctionAnalyses> analyze(const Function &F,
                                            const char *Side);
  /// One predictor's replay of one side's trace, made by the first
  /// simulate() that needs it.
  struct ReplaySlot {
    std::once_flag Once;
    TraceReplay Replay;
  };
  /// One empty slot per PredictorKind.
  static std::unique_ptr<ReplaySlot[]> makeReplaySlots();
  /// Replays \p Run's trace of \p F under a fresh predictor \p K and
  /// \p FE's BTB, counted under "sim/replays".
  TraceReplay replay(const Function &F, const ProfiledRun &Run,
                     PredictorKind K, const FrontendOptions &FE) const;
  /// The replay of \p Slots' side under \p K for Opts.Frontend, made on
  /// first use.
  const TraceReplay &sharedReplay(ReplaySlot *Slots, const Function &F,
                                  const ProfiledRun &Run,
                                  PredictorKind K) const;
  /// Counts \p N interpreter runs under "interp/runs".
  void countRuns(uint64_t N) const;
  void recordTransformStats();
  /// Fatal if finish() already ran (the poison check).
  void requireLive(const char *Stage) const;
  /// Degrades the session to the untreated baseline: reports \p Msg (and
  /// a recovery remark) to Opts.Diags, replaces the treated function with
  /// a baseline clone, zeroes the CPR counters, and invalidates the
  /// treated-side artifacts, its replays included.
  void fallbackToBaseline(DiagCode Code, std::string Msg,
                          const char *Site);

  KernelProgram Program;
  PipelineOptions Opts;
  StatsRegistry *Stats;
  std::string Prefix;
  std::string Name;

  bool Prepared = false;
  bool Finished = false;
  bool FellBack = false;
  bool BaselineProfileInjected = false;
  bool HaveTreated = false;
  bool TreatedInjected = false;
  bool EquivalenceDone = false;
  EquivResult Equivalence;

  ProfiledRun BaseRun;
  /// The baseline's final state (baselineFinal), held from its profiling
  /// run until the oracle has compared it, or until prepare() or
  /// tryPrepare() returns.
  std::optional<RunState> BaselineFinal;
  std::unique_ptr<Function> Treated;
  std::unique_ptr<FunctionAnalyses> BaseFA;
  std::unique_ptr<FunctionAnalyses> TreatedFA;
  CPRResult CPR;
  ProfiledRun TreatedRun;
  /// Each side's replays, one slot per PredictorKind (Opts.Simulate only).
  std::unique_ptr<ReplaySlot[]> BaseReplays;
  std::unique_ptr<ReplaySlot[]> TreatedReplays;
};

} // namespace cpr

#endif // PIPELINE_PIPELINERUN_H
