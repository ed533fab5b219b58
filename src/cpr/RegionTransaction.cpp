//===- cpr/RegionTransaction.cpp - Per-region rollback --------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "cpr/RegionTransaction.h"

#include "ir/Verifier.h"
#include "support/FaultInjector.h"

using namespace cpr;

RegionTransaction::RegionTransaction(Function &F, BlockId Region)
    : F(F), Region(Region), NumBlocks(F.numBlocks()) {
  Block *B = F.blockById(Region);
  assert(B && "transaction on a block that does not exist");
  SnapshotOps = B->ops();
}

Status RegionTransaction::verify(const std::string &Context,
                                 DiagnosticEngine *Diags) const {
  if (fault::shouldFail("ir.verify"))
    return Status::error(DiagCode::VerifyFailed,
                         "injected fault (" + Context + ")", "ir.verify");
  std::vector<std::string> Violations = verifyFunction(F);
  if (Violations.empty())
    return Status::success();
  // The first violation travels in the returned Status (the caller
  // reports it); the rest go straight to the engine so one fail-safe run
  // surfaces the complete list instead of "(+N more)".
  if (Diags)
    for (size_t I = 1; I < Violations.size(); ++I)
      Diags->report(DiagSeverity::Error, DiagCode::VerifyFailed,
                    "IR verification failed (" + Context + "): " +
                        Violations[I],
                    "ir.verify");
  std::string Msg =
      "IR verification failed (" + Context + "): " + Violations.front();
  if (Violations.size() > 1 && !Diags)
    Msg += " (+" + std::to_string(Violations.size() - 1) + " more)";
  return Status::error(DiagCode::VerifyFailed, std::move(Msg), "ir.verify");
}

unsigned RegionTransaction::rollback() {
  if (RolledBack)
    return 0;
  RolledBack = true;

  // Restore the region's operations first so no block references a
  // compensation block while we remove it.
  if (Block *B = F.blockById(Region))
    B->ops() = std::move(SnapshotOps);

  // Remove the blocks appended since the snapshot (compensation blocks of
  // the failed transform), last first.
  unsigned Removed = 0;
  for (; F.numBlocks() > NumBlocks; ++Removed)
    F.removeBlock(F.block(F.numBlocks() - 1).getId());
  return Removed;
}
