//===- cpr/RegionTransaction.h - Per-region rollback ------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transactional wrapper around one region's CPR transformation. The ICBM
/// phases (FRP conversion, speculation, restructure, off-trace motion)
/// mutate exactly one region block, and restructure appends compensation
/// blocks at the end of the function (Function::addBlock); a transaction
/// therefore only needs to snapshot the region's operation list and the
/// function's block count. On failure -- a phase returning a
/// TransformFault, the re-verify rejecting the result, or the caller's
/// acceptance check (lint, the equivalence oracle) vetoing it --
/// rollback() restores the region's operations and removes the blocks
/// past the count, leaving every *other* region's treatment intact.
/// Leaked virtual register and operation ids are harmless (both are
/// monotone allocators).
///
/// Transactions nest. The ICBM driver wraps each region in one, rolled
/// back when no CPR block of the region commits, and each CPR block's
/// restructure plus motion in another. An inner transaction that commits
/// leaves its compensation block to the outer one, whose rollback removes
/// it along with the rest.
///
/// The re-verify step hosts the "ir.verify" fault-injection site and the
/// caller-side oracle check hosts "interp.oracle" (support/FaultInjector.h),
/// so the rollback path itself is exercised by the fault campaign.
///
//===----------------------------------------------------------------------===//

#ifndef CPR_REGIONTRANSACTION_H
#define CPR_REGIONTRANSACTION_H

#include "ir/Function.h"
#include "support/Diagnostic.h"

namespace cpr {

/// Snapshot of one region taken before a (possibly failing) transform.
/// Non-owning view of the function; must not outlive it. Rollback is
/// explicit -- destruction without rollback() commits by doing nothing.
class RegionTransaction {
public:
  /// Snapshots region \p Region of \p F (its operation list and the
  /// current block count).
  RegionTransaction(Function &F, BlockId Region);

  RegionTransaction(const RegionTransaction &) = delete;
  RegionTransaction &operator=(const RegionTransaction &) = delete;

  /// Re-verifies \p F after the transform. Returns a VerifyFailed
  /// diagnostic (site "ir.verify") on violations; hosts the "ir.verify"
  /// fault-injection site. \p Context names the phase for the message.
  /// The returned Status carries the first violation; when \p Diags is
  /// non-null, every *further* violation is reported into it as its own
  /// VerifyFailed diagnostic (the caller reports the returned Status),
  /// so a fail-safe compile shows the complete per-region list.
  Status verify(const std::string &Context,
                DiagnosticEngine *Diags = nullptr) const;

  /// Restores the region's operations and removes every block past the
  /// snapshot's count, i.e. every block appended since. Idempotent.
  /// Returns the number of blocks removed.
  unsigned rollback();

  bool rolledBack() const { return RolledBack; }
  BlockId region() const { return Region; }

private:
  Function &F;
  BlockId Region;
  std::vector<Operation> SnapshotOps;
  size_t NumBlocks;
  bool RolledBack = false;
};

} // namespace cpr

#endif // CPR_REGIONTRANSACTION_H
