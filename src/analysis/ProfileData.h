//===- analysis/ProfileData.h - Branch and block profiles -------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution profiles: per-block entry counts and per-branch reach/taken
/// counts, keyed by ids that survive transformation. The ICBM match
/// heuristics (exit-weight and predict-taken tests) and the Table 2
/// estimate both consume this structure; the interpreter-based profiler and
/// the synthetic workload generators both produce it.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_PROFILEDATA_H
#define ANALYSIS_PROFILEDATA_H

#include "ir/Function.h"

#include <unordered_map>

namespace cpr {

/// Branch and block execution frequencies.
class ProfileData {
public:
  void addBlockEntry(BlockId B, uint64_t N = 1) { BlockEntries[B] += N; }
  void addBranchReached(OpId Op, uint64_t N = 1) { BranchReached[Op] += N; }
  void addBranchTaken(OpId Op, uint64_t N = 1) { BranchTaken[Op] += N; }

  uint64_t blockEntries(BlockId B) const { return lookup(BlockEntries, B); }
  uint64_t branchReached(OpId Op) const { return lookup(BranchReached, Op); }
  uint64_t branchTaken(OpId Op) const { return lookup(BranchTaken, Op); }

  /// Fraction of executions of the branch that take; 0 when never reached.
  double takenRatio(OpId Op) const {
    uint64_t R = branchReached(Op);
    return R == 0 ? 0.0
                  : static_cast<double>(branchTaken(Op)) /
                        static_cast<double>(R);
  }

  bool empty() const { return BlockEntries.empty(); }

  /// Merges \p Other into this profile (summing counts).
  void merge(const ProfileData &Other);

private:
  template <typename K>
  static uint64_t lookup(const std::unordered_map<K, uint64_t> &M, K Key) {
    auto It = M.find(Key);
    return It == M.end() ? 0 : It->second;
  }

  std::unordered_map<BlockId, uint64_t> BlockEntries;
  std::unordered_map<OpId, uint64_t> BranchReached;
  std::unordered_map<OpId, uint64_t> BranchTaken;
};

} // namespace cpr

#endif // ANALYSIS_PROFILEDATA_H
