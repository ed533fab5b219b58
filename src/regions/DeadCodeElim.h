//===- regions/DeadCodeElim.h - Dead code elimination -----------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Liveness-driven dead code elimination, run after ICBM as the paper does
/// (Section 5): operations computing unreferenced predicates disappear, and
/// cmpp operations with one dead destination lose that destination slot
/// (e.g. the UC target of a compare whose fall-through predicate was
/// re-wired to the on-trace FRP).
///
//===----------------------------------------------------------------------===//

#ifndef REGIONS_DEADCODEELIM_H
#define REGIONS_DEADCODEELIM_H

#include "ir/Function.h"

namespace cpr {

/// Results of one DCE run.
struct DCEStats {
  unsigned OpsRemoved = 0;
  unsigned DestsRemoved = 0;
};

class LivenessCache;

/// Removes dead operations and dead cmpp destinations from \p F, iterating
/// to a fixed point. Side-effecting operations (stores, branches,
/// terminators) and pbr operations feeding branches are always kept. Each
/// sweep reads one liveness solution from \p Cache (a LivenessCache over
/// \p F; null uses a local one) and reports the blocks it edited after
/// the sweep.
DCEStats eliminateDeadCode(Function &F, LivenessCache *Cache = nullptr);

} // namespace cpr

#endif // REGIONS_DEADCODEELIM_H
