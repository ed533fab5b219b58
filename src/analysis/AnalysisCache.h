//===- analysis/AnalysisCache.h - Shared per-function analyses --*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bundle of the solved whole-function analyses several pipeline stages
/// consume: lint (predicate-aware checks) and cycle pricing (the Table 2
/// estimate and the trace simulator). (The ICBM driver keeps its own
/// LivenessCache, analysis/Liveness.h, whose one solution it updates in
/// place after each edit, re-solving only the registers the edit touched
/// when it can.) PipelineRun computes one FunctionAnalyses per
/// side *serially, before any parallel stage*, and hands const references
/// to every consumer -- so the work is done once, and the pipeline's
/// output stays byte-identical at any `--threads` (the analyses are pure
/// functions of the IR; sharing them removes per-stage recomputation, not
/// determinism).
///
/// Given a machine to build them for, the bundle also holds every block's
/// dependence graph for that machine's branch latency (analysis/DepGraph.h,
/// BlockGraphs): the paper's five machines differ only in issue resources,
/// so one graph per block serves all five estimates and simulations.
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

#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"

#include <optional>

namespace cpr {

/// The solved analyses of one function at one point in time.
struct FunctionAnalyses {
  /// Solves the analyses of \p F and, given \p GraphMachine, builds its
  /// dependence graphs for that machine's branch latency under
  /// \p GraphOpts.
  explicit FunctionAnalyses(const Function &F,
                            const MachineDesc *GraphMachine = nullptr,
                            const DepGraphOptions &GraphOpts =
                                DepGraphOptions())
      : LV(F) {
    if (GraphMachine)
      Graphs.emplace(F, LV, *GraphMachine, GraphOpts);
  }

  FunctionAnalyses(const FunctionAnalyses &) = delete;
  FunctionAnalyses &operator=(const FunctionAnalyses &) = delete;

  /// The dependence graphs, or null when none were built. A consumer
  /// checks BlockGraphs::fits before scheduling them for a machine.
  const BlockGraphs *graphs() const { return Graphs ? &*Graphs : nullptr; }

  /// Backward/union liveness over the dense solver; its numbering is the
  /// register universe the graphs and every borrower (lint's own
  /// reaching definitions among them) share.
  Liveness LV;
  /// Per-block dependence graphs for one branch latency, if built.
  std::optional<BlockGraphs> Graphs;
};

} // namespace cpr

#endif // ANALYSIS_ANALYSISCACHE_H
