//===- fuzz/Reducer.h - Delta-debugging test-case reduction -----*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shrinks a failing fuzz program to a minimal reproducer while
/// preserving its failure signature (outcome classification plus, for
/// mismatches, the kind of diverging artifact or oracle disagreement)
/// under the same judge and variant. ddmin-style passes iterate to a
/// fixpoint:
///
///   1. whole-block removal;
///   2. operation-chunk removal (halving chunk sizes down to 1);
///   3. immediate canonicalization (toward 0);
///   4. initial-memory-cell and initial-register removal.
///
/// Every candidate must still pass the IR verifier before the oracle
/// re-runs; invalid candidates are rejected without an oracle run. The
/// reduction itself is deterministic (pure function of the input and
/// the oracle), so two reductions of the same finding emit byte-identical
/// reproducers.
///
//===----------------------------------------------------------------------===//

#ifndef FUZZ_REDUCER_H
#define FUZZ_REDUCER_H

#include "fuzz/Differential.h"
#include "support/Budget.h"

#include <functional>

namespace cpr {

struct ReducerOptions {
  /// Budget for oracle invocations (each "step" is one judged variant)
  /// and, optionally, reduction wall-clock (support/Budget.h).
  /// Exhaustion stops the reduction at the best candidate so far -- a
  /// degradation, not a failure.
  Budget OracleBudget = {/*MaxSteps=*/600, /*MaxWallMs=*/0.0};
  /// Run the immediate-canonicalization pass.
  bool CanonicalizeImms = true;
};

struct ReduceResult {
  KernelProgram Reduced;
  /// Failure signature of the reduced program (same as the input's).
  FuzzOutcome Outcome = FuzzOutcome::Pass;
  EquivResult::Divergence Divergence = EquivResult::Divergence::None;
  size_t OracleRuns = 0;
  size_t OriginalOps = 0;
  size_t ReducedOps = 0;
};

/// Judges one candidate program. Must be a pure function of the program
/// (the reduction is deterministic only if the oracle is), and must not
/// let FatalError escape -- FuzzJudge::judge of one variant is one.
using CaseOracle = std::function<FuzzVerdict(const KernelProgram &)>;

/// Shrinks \p P while \p Oracle's verdict keeps the failure signature
/// (FuzzVerdict::sameFailure) of its verdict on the unreduced \p P. When
/// that verdict is Pass, the input is returned unreduced.
ReduceResult reduceCaseWith(const KernelProgram &P, const CaseOracle &Oracle,
                            const ReducerOptions &Opts = ReducerOptions());

} // namespace cpr

#endif // FUZZ_REDUCER_H
