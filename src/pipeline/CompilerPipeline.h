//===- pipeline/CompilerPipeline.h - End-to-end harness ---------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end experimental harness reproducing the paper's methodology
/// (Section 7): given a runnable program, it
///
///  1. profiles the baseline superblock code in the interpreter;
///  2. produces the height-reduced version (FRP conversion + ICBM + DCE);
///  3. checks baseline/treated observational equivalence (not part of the
///     paper -- cheap insurance unique to having an interpreter);
///  4. re-profiles the treated code and gathers dynamic operation counts;
///  5. schedules both versions for each requested machine model and
///     estimates cycles, yielding the speedups of Table 2 and the
///     static/dynamic ratios of Table 3.
///
/// runPipeline() is the one-shot convenience wrapper over the staged
/// session API in pipeline/PipelineRun.h -- stage-level access, artifact
/// reuse/injection, and concurrent per-machine / per-predictor execution
/// live there (see docs/PIPELINE.md).
///
//===----------------------------------------------------------------------===//

#ifndef PIPELINE_COMPILERPIPELINE_H
#define PIPELINE_COMPILERPIPELINE_H

#include "cpr/ControlCPR.h"
#include "sim/TraceSimulator.h"
#include "workloads/Kernels.h"

#include <atomic>
#include <string>
#include <vector>

namespace cpr {

class StatsRegistry;

/// Options for one pipeline run.
struct PipelineOptions {
  CPROptions CPR;
  PerfModelOptions Perf;
  /// When >= 2, self-loop blocks of the input are unrolled by this factor
  /// in BOTH the baseline and the treated code before anything else --
  /// the paper's inputs are unrolled superblocks prepared by the IMPACT
  /// compiler, so unrolling is part of the common substrate, not of the
  /// ICBM treatment.
  unsigned UnrollFactor = 1;
  /// Machines to estimate for; defaults to the paper's five.
  std::vector<MachineDesc> Machines = MachineDesc::paperModels();
  /// Abort if the treated code is not observationally equivalent.
  bool CheckEquivalence = true;
  /// When true, the profiling runs also record branch traces and the
  /// pipeline fills PipelineResult::Sim with trace-driven dynamic
  /// estimates (the "Table 2-dyn" data) for every machine x predictor.
  bool Simulate = false;
  /// Predictors simulated when Simulate is set; defaults to the whole
  /// registry (sim/BranchPredictor.h), tage-sc-l included.
  std::vector<PredictorKind> Predictors = allPredictorKinds();
  /// Misprediction penalty in cycles; negative uses each machine's knob.
  int MispredictPenalty = -1;
  /// Decoupled-frontend refinement for the simulator (fetch bandwidth,
  /// BTB target misses -- see sim/TraceSimulator.h). Off by default,
  /// which preserves the legacy flat-penalty accounting and the
  /// penalty-0 == ExitAware invariant.
  FrontendOptions Frontend;
  /// Worker threads for the independent stages (per-machine estimates,
  /// machine x predictor simulations, and -- in runSuite -- whole
  /// benchmarks). 1 = serial; 0 = one per hardware thread. Results and
  /// reported counters are identical at every setting.
  unsigned Threads = 1;
  /// When non-null, every stage reports wall times and outcome counters
  /// here (see support/Statistics.h). Not owned.
  StatsRegistry *Stats = nullptr;

  /// --- Fail-safe compilation (docs/ROBUSTNESS.md) ---------------------
  /// When true, stage failures degrade instead of aborting: a failing
  /// CPR-block transform rolls back just its region (the rest of the
  /// function keeps its treatment), an equivalence mismatch falls the
  /// whole session back to the baseline, and budget exhaustion leaves
  /// remaining regions untreated. Off by default: the differential
  /// fuzzer and legacy callers rely on strict (process-fatal) behavior
  /// to observe compiler defects.
  bool FailSafe = false;
  /// With FailSafe: re-run the observational-equivalence oracle after
  /// every committed region transaction and roll back diverging regions.
  /// Catches verifier-clean miscompiles (e.g. a dropped compensation
  /// copy) at the cost of one interpreter run per CPR block.
  bool RegionEquivalence = false;
  /// Step cap of every interpreter run of a session (profiling runs, the
  /// equivalence oracle and the region re-check); 0 keeps the
  /// interpreter's DefaultMaxSteps. A profiling run that exhausts it is a
  /// BudgetExhausted diagnostic, an oracle run an exit-path mismatch.
  uint64_t InterpMaxSteps = 0;
  /// Budget for the transform stage (steps = CPR-block transforms, plus
  /// an optional wall-clock cap). Zero-initialized = unlimited.
  Budget TransformBudget;
  /// Whole-request deadline (support/Deadline.h). Checked at stage
  /// boundaries and inside the transform's budget polls: expiry degrades
  /// exactly like budget exhaustion but reports
  /// DiagCode::DeadlineExceeded. Inactive by default.
  Deadline RequestDeadline;
  /// Cooperative cancellation (e.g. the requesting client disconnected).
  /// Observed at the same points as the deadline; reports
  /// DiagCode::Cancelled. Not owned; may be set from any thread.
  const std::atomic<bool> *CancelFlag = nullptr;
  /// Run the static semantic checks of src/lint/ (docs/LINT.md) around
  /// the transform: the baseline is linted before CPR and the treated
  /// function after it, with findings reported to Diags and counted in
  /// Stats. When the baseline is lint-clean, post-transform error
  /// findings mean the transform broke an invariant: with FailSafe each
  /// offending region rolls back as its transaction commits (via
  /// CPRContext::RegionCheck) and a finding that still survives falls the
  /// session back to the baseline; in strict mode it is fatal. Purely
  /// static -- no interpreter runs, unlike RegionEquivalence.
  bool Lint = false;
  /// Optional sink for stage diagnostics and rollback remarks. Not
  /// owned; may be shared across sessions (it is thread-safe).
  DiagnosticEngine *Diags = nullptr;
};

/// Per-machine timing comparison.
struct MachineComparison {
  std::string MachineName;
  double BaselineCycles = 0.0;
  double TreatedCycles = 0.0;
  double speedup() const {
    return TreatedCycles > 0.0 ? BaselineCycles / TreatedCycles : 0.0;
  }
};

/// Per-machine, per-predictor dynamic timing comparison.
struct SimComparison {
  std::string MachineName;
  std::string PredictorName;
  SimEstimate Baseline;
  SimEstimate Treated;
  double speedup() const {
    return Treated.TotalCycles > 0.0
               ? Baseline.TotalCycles / Treated.TotalCycles
               : 0.0;
  }
};

/// Everything measured for one program.
struct PipelineResult {
  std::string Name;

  // Static operation counts ("S tot" / "S br" of Table 3).
  size_t StaticOpsBaseline = 0;
  size_t StaticOpsTreated = 0;
  size_t StaticBranchesBaseline = 0;
  size_t StaticBranchesTreated = 0;

  // Dynamic operation counts ("D tot" / "D br" of Table 3).
  DynStats DynBaseline;
  DynStats DynTreated;

  // Per-machine cycle estimates (Table 2).
  std::vector<MachineComparison> Machines;

  // Trace-driven dynamic estimates (machine x predictor), filled only
  // when PipelineOptions::Simulate is set.
  std::vector<SimComparison> Sim;

  CPRResult CPR;

  /// The treated function, for inspection/printing.
  std::unique_ptr<Function> Treated;

  double staticOpRatio() const {
    return StaticOpsBaseline
               ? static_cast<double>(StaticOpsTreated) /
                     static_cast<double>(StaticOpsBaseline)
               : 0.0;
  }
  double staticBranchRatio() const {
    return StaticBranchesBaseline
               ? static_cast<double>(StaticBranchesTreated) /
                     static_cast<double>(StaticBranchesBaseline)
               : 0.0;
  }
  double dynOpRatio() const {
    return DynBaseline.OpsDispatched
               ? static_cast<double>(DynTreated.OpsDispatched) /
                     static_cast<double>(DynBaseline.OpsDispatched)
               : 0.0;
  }
  double dynBranchRatio() const {
    return DynBaseline.BranchesDispatched
               ? static_cast<double>(DynTreated.BranchesDispatched) /
                     static_cast<double>(DynBaseline.BranchesDispatched)
               : 0.0;
  }

  /// Speedup on the machine named \p Name, or 0 if absent.
  double speedupOn(const std::string &MachineName) const;

  /// The simulated comparison for (\p MachineName, \p PredictorName), or
  /// nullptr if absent.
  const SimComparison *simOn(const std::string &MachineName,
                             const std::string &PredictorName) const;
};

/// Produces the height-reduced (FRP + ICBM + DCE) version of \p Baseline,
/// profiled with \p Profile. Returns the treated function and fills
/// \p CPROut when non-null.
std::unique_ptr<Function> applyControlCPR(const Function &Baseline,
                                          const ProfileData &Profile,
                                          const CPROptions &Opts,
                                          CPRResult *CPROut = nullptr);

/// Runs the full measurement pipeline on \p Program. Thin compatibility
/// wrapper over a PipelineRun session: the program is cloned (the caller's
/// function is no longer unrolled in place), the serial stages run once,
/// and the per-machine / per-predictor stages fan out over Opts.Threads.
PipelineResult runPipeline(const KernelProgram &Program,
                           const PipelineOptions &Opts = PipelineOptions());

/// Counts static branch operations in \p F.
size_t countStaticBranches(const Function &F);

} // namespace cpr

#endif // PIPELINE_COMPILERPIPELINE_H
