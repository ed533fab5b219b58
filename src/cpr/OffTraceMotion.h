//===- cpr/OffTraceMotion.h - ICBM phase 4 ----------------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ICBM off-trace motion phase (paper Section 5.4). Three passes over
/// the restructured region compute:
///
///  - set 1: the original compares and branches of the CPR block plus all
///    their data-dependence successors -- these must move off-trace;
///  - set 2: the subset of set 1 whose effect is also needed on-trace
///    (most commonly stores) -- these are split, leaving a copy on-trace
///    guarded by the on-trace FRP;
///  - set 3: operations outside set 1 whose results are used only by
///    moved operations (typically the pbr operations feeding moved
///    branches) -- moved as a pure benefit to the on-trace path.
///
/// A final step performs the splitting and the motion into the
/// compensation block (fall-through variation) or to the start of the
/// region tail after the final branch (taken variation).
///
/// Failure model: separability violations, lost operation ids, and
/// injected faults (site "cpr.offtrace.move") come back as recoverable
/// TransformFault diagnostics; the driver rolls the region's transaction
/// back. Fault site "cpr.restructure.compensation" plants the deliberate
/// miscompile of dropping the moved operations instead of compensating.
///
//===----------------------------------------------------------------------===//

#ifndef CPR_OFFTRACEMOTION_H
#define CPR_OFFTRACEMOTION_H

#include "cpr/Restructure.h"

namespace cpr {

class LivenessCache;

/// Statistics from one motion run.
struct MotionStats {
  unsigned Moved = 0; ///< operations moved off-trace (sets 1 and 3)
  unsigned Split = 0; ///< operations replicated on-trace (set 2)
};

/// Performs off-trace motion for one restructured CPR block. On failure
/// \p F may be left mid-motion -- callers roll the enclosing region
/// transaction back. \p Cache, when given, supplies the liveness of the
/// restructured function (an ICBM driver's LivenessCache over \p F, told
/// of the restructure); null solves with a local cache. Motion reports no
/// edits: the caller reports the region and the compensation block after
/// it returns, whether it succeeded or not.
Expected<MotionStats> moveOffTrace(Function &F, const RestructurePlan &Plan,
                                   LivenessCache *Cache = nullptr);

} // namespace cpr

#endif // CPR_OFFTRACEMOTION_H
