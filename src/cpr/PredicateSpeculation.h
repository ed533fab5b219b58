//===- cpr/PredicateSpeculation.h - ICBM phase 1 ----------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Predicate speculation (paper Section 5.1), the first ICBM phase. Two
/// bottom-up traversals of the region:
///
///  1. *Promotion*: each eligible operation's guard is promoted to true
///     when the promotion cannot overwrite a live value (checked with
///     predicate-aware liveness). Compare-to-predicate operations are not
///     candidates; stores are not promoted (their memory liveness is
///     unknown), matching the paper's example where every promoted store
///     is demoted back.
///
///  2. *Demotion*: promotions that could not reduce dependence height --
///     the operation's data-dependence depth already reaches past the
///     point where its original guard becomes available -- are undone.
///
/// The phase's real purpose for ICBM is separability: FRP-converted code
/// guards address arithmetic and loads with block FRPs, creating
/// compare -> op -> compare chains that would make the separability test
/// fail at almost every block; promotion removes those guards.
///
//===----------------------------------------------------------------------===//

#ifndef CPR_PREDICATESPECULATION_H
#define CPR_PREDICATESPECULATION_H

#include "ir/Function.h"

namespace cpr {

class LivenessCache;

/// Statistics from one speculation run.
struct SpeculationStats {
  unsigned Promoted = 0;
  unsigned Demoted = 0;
};

/// Runs predicate speculation over block \p B of \p F in place. \p Cache,
/// when given, supplies the function's liveness (an ICBM driver's
/// LivenessCache over \p F) and receives an edit report for each pass
/// that changed a guard; null solves with a local cache.
SpeculationStats speculatePredicates(Function &F, Block &B,
                                     LivenessCache *Cache = nullptr);

} // namespace cpr

#endif // CPR_PREDICATESPECULATION_H
