//===- cpr/ControlCPR.h - The ICBM driver -----------------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The complete ICBM control-CPR pass (paper Section 5): predicate
/// speculation, match, restructure, and off-trace motion over every linear
/// region of a function, followed by dead code elimination. The input is
/// expected to be FRP-converted (regions/FRPConversion.h); the driver
/// leaves regions that do not fit the schema untouched, as the paper does.
///
/// Fail-safe operation (docs/ROBUSTNESS.md): each CPR block's restructure
/// plus motion runs inside a RegionTransaction. A TransformFault from a
/// phase, a re-verification failure, a failed CPRContext::RegionCheck
/// (lint or the equivalence oracle), or an exhausted stage budget rolls
/// back just that region -- the rest of the function keeps its treatment
/// and the result is always runnable. Strict mode (CPRContext::FailSafe =
/// false, the legacy default) instead escalates the first failure to
/// reportFatalError so the differential fuzzer keeps observing compiler
/// defects as crashes or oracle mismatches rather than silent rollbacks.
///
//===----------------------------------------------------------------------===//

#ifndef CPR_CONTROLCPR_H
#define CPR_CONTROLCPR_H

#include "analysis/ProfileData.h"
#include "cpr/CPROptions.h"
#include "cpr/Match.h"
#include "regions/DeadCodeElim.h"
#include "support/Budget.h"
#include "support/Diagnostic.h"

#include <functional>

namespace cpr {

class StatsRegistry;

/// Summary of one ICBM run.
struct CPRResult {
  unsigned RegionsProcessed = 0;
  unsigned CPRBlocksFormed = 0;
  unsigned CPRBlocksTransformed = 0;
  unsigned TakenVariants = 0;
  unsigned BranchesCovered = 0; ///< branches inside transformed CPR blocks
  unsigned Promoted = 0;
  unsigned Demoted = 0;
  unsigned LookaheadsInserted = 0;
  unsigned OpsMovedOffTrace = 0;
  unsigned OpsSplit = 0;
  DCEStats DCE;
  /// Stop-reason histogram, indexed by MatchStopReason.
  unsigned StopReasons[6] = {0, 0, 0, 0, 0, 0};
  /// Fail-safe accounting: CPR-block transactions rolled back, regions
  /// with at least one rollback, regions left untreated because the
  /// transform budget ran out, and whether it did.
  unsigned BlocksRolledBack = 0;
  unsigned RegionsRolledBack = 0;
  unsigned RegionsSkippedBudget = 0;
  bool BudgetExhausted = false;
  /// Liveness solves of the phases and DCE through the driver's
  /// LivenessCache: full solves over every register, and partial
  /// re-solves of the registers an edit touched. A cost, not an outcome:
  /// the service wire and the benchmark's session digest leave them out.
  unsigned LivenessSolves = 0;
  unsigned LivenessPartialSolves = 0;
};

/// How the driver reacts to a failing transformation.
struct CPRContext {
  /// Optional sink for rollback remarks and stage errors.
  DiagnosticEngine *Diags = nullptr;
  /// Optional acceptance check of each CPR-block transaction, run on the
  /// whole function after it re-verifies. Return a failure Status to roll
  /// the transaction back. PipelineRun composes it from the static lint
  /// (src/lint/, PipelineOptions::Lint) and then, only when lint passes,
  /// the more expensive interpreter re-check that runs the function
  /// (PipelineOptions::RegionEquivalence).
  std::function<Status(const Function &)> RegionCheck;
  /// Optional transform budget; one step is one CPR-block transform.
  /// Exhaustion skips the remaining regions (baseline fallback).
  BudgetTracker *Budget = nullptr;
  /// true: roll failing regions back and continue (production).
  /// false: escalate the first failure to reportFatalError (legacy strict
  /// behavior; what the differential fuzzer relies on).
  bool FailSafe = true;
  /// Optional sink for the per-phase wall times ("transform/frp",
  /// "transform/speculate", "transform/match", "transform/restructure",
  /// "transform/motion", "transform/dce"), each summed over the regions;
  /// a phase that never ran records none. Without it no clock is read.
  StatsRegistry *Stats = nullptr;
};

/// Runs ICBM over every non-compensation block of \p F, using \p Profile
/// for the match heuristics. \p F is verified after the pass; in
/// fail-safe mode the result is runnable even when regions rolled back.
/// The phases and DCE share one liveness solution (analysis/Liveness.h,
/// LivenessCache), updated in place after each edit.
CPRResult runControlCPR(Function &F, const ProfileData &Profile,
                        const CPROptions &Opts, const CPRContext &Ctx);

/// Legacy strict entry point: FailSafe off, no oracle, no budget.
CPRResult runControlCPR(Function &F, const ProfileData &Profile,
                        const CPROptions &Opts = CPROptions());

} // namespace cpr

#endif // CPR_CONTROLCPR_H
