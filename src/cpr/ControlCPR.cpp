//===- cpr/ControlCPR.cpp - The ICBM driver --------------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "cpr/ControlCPR.h"

#include "analysis/Liveness.h"
#include "cpr/OffTraceMotion.h"
#include "cpr/PredicateSpeculation.h"
#include "cpr/RegionTransaction.h"
#include "cpr/Restructure.h"
#include "regions/FRPConversion.h"
#include "ir/Verifier.h"
#include "support/Error.h"
#include "support/Statistics.h"

#include <algorithm>

using namespace cpr;

namespace {

/// Reports the failure that triggered a rollback plus a RegionRolledBack
/// remark narrating the recovery.
void reportRollback(const CPRContext &Ctx, BlockId Region, Diagnostic Cause,
                    unsigned BlocksRemoved) {
  if (!Ctx.Diags)
    return;
  Ctx.Diags->report(Cause);
  Ctx.Diags->report(DiagSeverity::Remark, DiagCode::RegionRolledBack,
                    "region " + std::to_string(Region) +
                        " rolled back (removed " +
                        std::to_string(BlocksRemoved) +
                        " compensation block(s)); cause: " + Cause.Message,
                    Cause.Site);
}

/// Reports the budget-exhaustion warning (once per run). The tracker
/// says which limit actually tripped: a plain step/wall budget, the
/// request deadline, or client cancellation (support/Budget.h).
void reportBudgetExhausted(const CPRContext &Ctx, CPRResult &Result,
                           const char *What) {
  if (!Result.BudgetExhausted && Ctx.Diags)
    Ctx.Diags->report(DiagSeverity::Warning, Ctx.Budget->exhaustionCode(),
                      "transform " + Ctx.Budget->describeExhaustion() + "; " +
                          What,
                      "pipeline.transform");
  Result.BudgetExhausted = true;
}

} // namespace

CPRResult cpr::runControlCPR(Function &F, const ProfileData &Profile,
                             const CPROptions &Opts, const CPRContext &Ctx) {
  CPRResult Result;
  // Every edit below is reported to the cache, block by block, so each
  // phase gets the solution for the function as it is when the phase runs.
  // An edit that leaves a block's transfer unchanged costs it no solve.
  LivenessCache LC(F);

  // Snapshot the regions to process: restructure appends compensation
  // blocks which must not themselves be processed.
  std::vector<BlockId> Regions;
  for (size_t I = 0, E = F.numBlocks(); I != E; ++I)
    if (!F.block(I).isCompensation())
      Regions.push_back(F.block(I).getId());

  for (BlockId RId : Regions) {
    if (Ctx.Budget && Ctx.Budget->exhausted()) {
      // Baseline fallback for everything not yet treated; an ordinary
      // diagnostic, not a failure of the compilation.
      reportBudgetExhausted(Ctx, Result, "remaining regions left untreated");
      ++Result.RegionsSkippedBudget;
      continue;
    }

    Block &B = *F.blockById(RId);
    if (B.empty())
      continue;
    ++Result.RegionsProcessed;
    // Without a branch, match forms no CPR block and FRP conversion
    // allocates nothing, so the region would roll back to itself.
    if (std::none_of(B.ops().begin(), B.ops().end(),
                     [](const Operation &Op) { return Op.isBranch(); }))
      continue;

    // When no CPR block in this region turns out to be transformable, or
    // none commits, the region is rolled back to its pre-pass form -- the
    // paper's "code is left unchanged over an input subregion" policy.
    // (FRP conversion and speculation are only enablers for ICBM; left in
    // place without it they merely unchain exits for no benefit.)
    RegionTransaction RegionTxn(F, RId);

    // Phase 0: FRP conversion (paper Section 4.1) prepares the region.
    // It edits only B's operations (the register and op-id allocators it
    // advances are not liveness inputs).
    {
      PassTimer T(Ctx.Stats, "transform/frp");
      convertToFRP(F, B);
    }
    LC.noteEdit(B);

    // Phase 1: predicate speculation.
    SpeculationStats SS;
    if (Opts.EnablePredicateSpeculation) {
      PassTimer T(Ctx.Stats, "transform/speculate");
      SS = speculatePredicates(F, B, &LC);
    }

    // Phase 2: match.
    PassTimer MatchTimer(Ctx.Stats, "transform/match");
    std::vector<CPRBlockInfo> Blocks =
        matchCPRBlocks(F, B, Profile, Opts, &LC);
    MatchTimer.stop();
    bool AnyTransformable = false;
    Result.CPRBlocksFormed += static_cast<unsigned>(Blocks.size());
    for (const CPRBlockInfo &Info : Blocks) {
      AnyTransformable |= Info.Transformable;
      ++Result.StopReasons[static_cast<unsigned>(Info.StopReason)];
    }
    if (!AnyTransformable) {
      RegionTxn.rollback();
      LC.noteEdit(B);
      continue;
    }
    Result.Promoted += SS.Promoted;
    Result.Demoted += SS.Demoted;

    // Phases 3 and 4, CPR block by CPR block in program order: the
    // re-wiring performed by an earlier block's restructure establishes
    // the root predicate the next block's restructure reads. Each block
    // transforms inside its own transaction, nested in the region's; a
    // failure rolls back just that block's changes (strict mode escalates
    // to a fatal error instead).
    unsigned TransformedHere = 0;
    bool RolledBackHere = false;
    for (const CPRBlockInfo &Info : Blocks) {
      if (!Info.Transformable)
        continue;
      if (Ctx.Budget && !Ctx.Budget->consume()) {
        reportBudgetExhausted(Ctx, Result,
                              "remaining CPR blocks left untreated");
        break;
      }

      RegionTransaction Txn(F, B.getId());
      auto Fail = [&](Diagnostic Cause) {
        if (!Ctx.FailSafe)
          reportFatalError(Cause.Message);
        // Rollback restores B and removes the appended blocks, which the
        // cache notices in the layout.
        unsigned Removed = Txn.rollback();
        LC.noteEdit(B);
        ++Result.BlocksRolledBack;
        RolledBackHere = true;
        reportRollback(Ctx, B.getId(), std::move(Cause), Removed);
      };

      // Restructure edits B and may append a compensation block.
      PassTimer RestructureTimer(Ctx.Stats, "transform/restructure");
      Expected<RestructurePlan> Plan = restructureCPRBlock(F, B, Info);
      RestructureTimer.stop();
      LC.noteEdit(B);
      if (!Plan) {
        Fail(Plan.takeDiagnostic());
        continue;
      }
      // Motion edits B and fills the compensation block, also when it
      // fails part-way.
      PassTimer MotionTimer(Ctx.Stats, "transform/motion");
      Expected<MotionStats> MS = moveOffTrace(F, *Plan, &LC);
      MotionTimer.stop();
      LC.noteEdit(B);
      if (const Block *Comp = F.blockById(Plan->CompBlock))
        LC.noteEdit(*Comp);
      if (!MS) {
        Fail(MS.takeDiagnostic());
        continue;
      }
      if (Status V = Txn.verify("after control CPR block transform",
                                Ctx.Diags);
          !V) {
        Fail(V.takeDiagnostic());
        continue;
      }
      if (Ctx.RegionCheck)
        if (Status C = Ctx.RegionCheck(F); !C) {
          Fail(C.takeDiagnostic());
          continue;
        }

      ++TransformedHere;
      ++Result.CPRBlocksTransformed;
      if (Info.TakenVariation)
        ++Result.TakenVariants;
      Result.BranchesCovered += static_cast<unsigned>(Info.size());
      Result.LookaheadsInserted +=
          static_cast<unsigned>(Plan->LookaheadIds.size());
      Result.OpsMovedOffTrace += MS->Moved;
      Result.OpsSplit += MS->Split;
    }
    if (RolledBackHere)
      ++Result.RegionsRolledBack;
    if (TransformedHere == 0) {
      // Every transformable block failed (or the budget ran out before
      // any committed): as for untransformable regions, FRP conversion
      // alone is no benefit.
      RegionTxn.rollback();
      LC.noteEdit(B);
    }
  }

  // Final cleanup, as in the paper: dead code elimination removes
  // operations computing predicates that are no longer referenced.
  {
    PassTimer T(Ctx.Stats, "transform/dce");
    Result.DCE = eliminateDeadCode(F, &LC);
  }
  Result.LivenessSolves = LC.solves();
  Result.LivenessPartialSolves = LC.partialSolves();

  // Unreachable-state shim, not a recoverable path: transactions re-verify
  // before committing, so an invalid function here is a driver bug.
  verifyOrDie(F, "after control CPR");
  return Result;
}

CPRResult cpr::runControlCPR(Function &F, const ProfileData &Profile,
                             const CPROptions &Opts) {
  CPRContext Strict;
  Strict.FailSafe = false;
  return runControlCPR(F, Profile, Opts, Strict);
}
