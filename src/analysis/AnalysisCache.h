//===- analysis/AnalysisCache.h - Shared per-function analyses --*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bundle of the solved whole-function dataflow analyses several
/// pipeline stages consume: lint (predicate-aware checks), the performance
/// model's dependence construction, and the trace simulator. (The ICBM
/// driver keeps its own LivenessCache, analysis/Liveness.h, and re-solves
/// liveness only after a phase actually edited the function.) PipelineRun
/// computes one FunctionAnalyses per treated function *serially, before
/// any parallel stage*, and hands const references to every consumer --
/// so the work is
/// done once, and the pipeline's output stays byte-identical at any
/// `--threads` (the analyses are pure functions of the IR; sharing them
/// removes per-stage recomputation, not determinism).
///
/// Invalidation is by construction: the bundle describes the function
/// text it was built from, and every mutation point (region transform,
/// scheduling) rebuilds downstream analyses it needs itself. Callers must
/// not reuse a bundle across a mutation of the function.
///
/// Thread-safety: immutable after construction; share across threads
/// freely through const access.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_ANALYSISCACHE_H
#define ANALYSIS_ANALYSISCACHE_H

#include "analysis/Dataflow.h"
#include "analysis/Liveness.h"

namespace cpr {

/// The solved analyses of one function at one point in time.
struct FunctionAnalyses {
  explicit FunctionAnalyses(const Function &F)
      : LV(F), Reach(F, LV.numbering()) {}

  FunctionAnalyses(const FunctionAnalyses &) = delete;
  FunctionAnalyses &operator=(const FunctionAnalyses &) = delete;

  /// Backward/union liveness over the dense solver; its numbering is the
  /// register universe every analysis in the bundle shares.
  Liveness LV;
  /// Forward/union cross-block reaching definitions.
  ReachingDefBlocks Reach;
};

} // namespace cpr

#endif // ANALYSIS_ANALYSISCACHE_H
