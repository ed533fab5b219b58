//===- cpr/Match.h - ICBM phase 2: CPR block identification -----*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ICBM match phase (paper Section 5.2 and Figure 5): partitions a
/// region's branches into CPR blocks by growing a block branch-by-branch
/// until one of four tests ends it:
///
///  - *suitability* (correctness): each appended branch's controlling
///    compare must compute the branch predicate with a UN target and be
///    guarded by a member of the suitable-predicate set SP, which makes
///    the schema's simplified off-trace FRP root & (c1 | ... | cn) exact;
///  - *separability* (correctness): the candidate's controlling compare
///    must not be a dependence successor of any compare that will move
///    off-trace (ignoring the UC-guard chain edges licensed by
///    suitability);
///  - *exit-weight* (heuristic): cumulative exit frequency of the block
///    stays below a threshold fraction of its entry frequency;
///  - *predict-taken* (heuristic): a likely-taken candidate is appended,
///    tags the block as a taken-variation block, and ends growth; this
///    test has priority over exit-weight.
///
//===----------------------------------------------------------------------===//

#ifndef CPR_MATCH_H
#define CPR_MATCH_H

#include "analysis/ProfileData.h"
#include "cpr/CPROptions.h"
#include "ir/Function.h"

#include <vector>

namespace cpr {

class LivenessCache;

/// Why a CPR block stopped growing (for reporting and tests).
enum class MatchStopReason : uint8_t {
  NoMoreBranches,
  Suitability,
  Separability,
  ExitWeight,
  PredictTaken,
  SizeCap,
};

/// Returns a printable name for \p R.
const char *matchStopReasonName(MatchStopReason R);

/// One CPR block: a run of consecutive branches of the region.
struct CPRBlockInfo {
  /// Ids of the branch operations, in program order.
  std::vector<OpId> BranchIds;
  /// Ids of the controlling compares, parallel to BranchIds.
  std::vector<OpId> CmppIds;
  /// Tagged by the predict-taken test: the final branch is likely taken
  /// and restructure uses the taken variation.
  bool TakenVariation = false;
  /// True when the block is big enough and suitable to transform.
  bool Transformable = false;
  /// Why growth ended.
  MatchStopReason StopReason = MatchStopReason::NoMoreBranches;

  size_t size() const { return BranchIds.size(); }
};

/// Runs match over block \p B of \p F, consuming \p Profile. \p Cache,
/// when given, supplies the function's liveness (an ICBM driver's
/// LivenessCache over \p F); null solves with a local cache.
std::vector<CPRBlockInfo> matchCPRBlocks(const Function &F, const Block &B,
                                         const ProfileData &Profile,
                                         const CPROptions &Opts,
                                         LivenessCache *Cache = nullptr);

} // namespace cpr

#endif // CPR_MATCH_H
