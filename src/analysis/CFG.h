//===- analysis/CFG.h - Control-flow queries over superblocks ---*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow utilities over the superblock-style IR: resolving each
/// branch's target through its preparing pbr, and enumerating block
/// successors (interior branch targets plus the layout fall-through).
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_CFG_H
#define ANALYSIS_CFG_H

#include "ir/Function.h"

#include <vector>

namespace cpr {

/// Returns the target block of the Branch at \p OpIdx of \p B, resolved by
/// scanning backwards for the pbr that wrote its BTR operand. Returns
/// InvalidBlockId when no preparing pbr exists (rejected by the verifier).
BlockId resolveBranchTarget(const Block &B, size_t OpIdx);

/// One control-flow exit of a block.
struct BlockExit {
  /// Index of the exiting operation, or -1 for the layout fall-through.
  int OpIdx;
  /// Target block, or InvalidBlockId for halt/trap/fall-off-end.
  BlockId Target;
  bool isFallThrough() const { return OpIdx < 0; }
};

/// Enumerates the exits of block \p LayoutIdx of \p F: one entry per
/// interior branch (in program order), one per halt/trap, and a trailing
/// fall-through entry to the next layout block when control can reach the
/// end of the block.
std::vector<BlockExit> blockExits(const Function &F, size_t LayoutIdx);

/// Returns the successor block ids of block \p LayoutIdx (deduplicated,
/// excluding InvalidBlockId).
std::vector<BlockId> blockSuccessors(const Function &F, size_t LayoutIdx);

/// Block id -> layout index over \p F (Function::layoutIndex for every id
/// at once): -1 where no block has the id; ids past the end have no block.
std::vector<int> layoutIndexMap(const Function &F);

} // namespace cpr

#endif // ANALYSIS_CFG_H
