//===- cpr/PredicateSpeculation.cpp - ICBM phase 1 -------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "cpr/PredicateSpeculation.h"

#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "machine/MachineDesc.h"

using namespace cpr;

namespace {

/// Returns true if \p Op may have its guard promoted at all.
bool isPromotionCandidate(const Operation &Op) {
  if (Op.getGuard().isTruePred())
    return false; // nothing to do
  switch (Op.getOpcode()) {
  case Opcode::Cmpp:
    // Compare-to-predicate operations are excluded (paper Section 5.1).
    return false;
  case Opcode::Store:
    // Memory liveness is unknown; a promoted store could clobber live
    // memory. The paper's example demotes every promoted store anyway.
    return false;
  case Opcode::Branch:
  case Opcode::Halt:
  case Opcode::Trap:
    return false; // control flow must not be speculated via guards
  default:
    return true;
  }
}

} // namespace

SpeculationStats cpr::speculatePredicates(Function &F, Block &B,
                                          LivenessCache *Cache) {
  SpeculationStats Stats;
  LivenessCache Local(F);
  LivenessCache &LC = Cache ? *Cache : Local;

  // --- Pass 1: promotion (bottom-up) -----------------------------------
  // Predicate-aware liveness is computed on the original guards; since
  // promotion only widens execution conditions and we test against the
  // original liveness, every individual promotion is safe, and promotions
  // of later (below) operations cannot invalidate the test for earlier
  // ones (a promoted definition only overwrites registers that were
  // provably dead under the complement of its original guard).
  std::vector<Reg> OriginalGuard(B.size());
  std::vector<bool> WasPromoted(B.size(), false);
  {
    RegionPQS PQS(F, B);
    const Liveness &LV = LC.get();
    PredicatedLiveness PLV(F, B, PQS, LV);
    BDD &Mgr = PQS.bdd();

    // Exit-live sets of the region's branches, in program order. A
    // promoted (true-guarded) operation later survives ICBM's branch
    // removal *above* the original branches, so promotion is speculation:
    // the destination must be dead at the target of every branch that
    // precedes... more precisely, that originally guarded the operation.
    std::vector<std::pair<size_t, LiveSet>> BranchExitLive;
    for (size_t I = 0; I < B.size(); ++I)
      if (B.ops()[I].isBranch())
        BranchExitLive.emplace_back(I, LV.liveAtExit(B, I));

    for (size_t I = B.size(); I-- > 0;) {
      Operation &Op = B.ops()[I];
      OriginalGuard[I] = Op.getGuard();
      if (!isPromotionCandidate(Op))
        continue;
      BDD::NodeRef GuardE = PQS.guardExpr(I);
      BDD::NodeRef NotGuard = Mgr.mkNot(GuardE);
      if (NotGuard == BDD::Invalid)
        continue; // conservative
      bool Safe = true;
      for (const DefSlot &D : Op.defs()) {
        // Promotion is unsafe if the destination is live (after the op)
        // anywhere the operation would not originally have executed.
        BDD::NodeRef LiveE = PLV.liveAfter(I, D.R);
        if (!Mgr.disjoint(LiveE, NotGuard)) {
          Safe = false;
          break;
        }
        // Speculation safety: once promoted to true, the operation will
        // execute even on entries that leave through an earlier exit
        // (ICBM removes those branches from above it), so its destination
        // must be dead at every earlier exit's target.
        for (const auto &[BrIdx, ExitLive] : BranchExitLive) {
          if (BrIdx >= I)
            break;
          if (ExitLive.count(D.R)) {
            Safe = false;
            break;
          }
        }
        if (!Safe)
          break;
      }
      if (!Safe)
        continue;
      Op.setGuard(Reg::truePred());
      WasPromoted[I] = true;
      ++Stats.Promoted;
    }
  }
  // Promotion changes guards only, and counts each change.
  if (Stats.Promoted)
    LC.noteEdit(B);

  // --- Pass 2: demotion (bottom-up) -------------------------------------
  // Undo promotions that cannot reduce dependence height: if the
  // operation's data-dependence depth (with the promoted guard) already
  // reaches at least to the point where its original guard value is
  // available, the promotion bought nothing and is reverted, recovering
  // the narrower execution condition (fewer spurious executions, better
  // register allocation -- paper Section 5.1).
  {
    RegionPQS PQS(F, B);
    MachineDesc MD = MachineDesc::infinite();
    DepGraph DG(F, B, MD, PQS, LC.get());
    std::vector<int> Depth = DG.depths();

    // Operations on a data path into a branch-controlling compare keep
    // their promotion regardless of the height rule: re-guarding them
    // would recreate the compare -> op -> compare chains that make the
    // separability test fail, defeating the purpose of this phase (paper
    // Section 5.1). Computed as a backward closure from the controlling
    // compares over flow/memory edges.
    std::vector<bool> FeedsControllingCmpp(B.size(), false);
    {
      std::vector<uint32_t> Work;
      for (size_t I = 0; I < B.size(); ++I) {
        if (!B.ops()[I].isBranch())
          continue;
        int C = B.lastDefBefore(B.ops()[I].branchPred(), I);
        if (C >= 0 && B.ops()[static_cast<size_t>(C)].isCmpp() &&
            !FeedsControllingCmpp[static_cast<size_t>(C)]) {
          FeedsControllingCmpp[static_cast<size_t>(C)] = true;
          Work.push_back(static_cast<uint32_t>(C));
        }
      }
      while (!Work.empty()) {
        uint32_t N = Work.back();
        Work.pop_back();
        for (uint32_t EI : DG.preds(N)) {
          const DepEdge &E = DG.edge(EI);
          if (E.Kind != DepKind::Flow && E.Kind != DepKind::Mem)
            continue;
          if (!FeedsControllingCmpp[E.From]) {
            FeedsControllingCmpp[E.From] = true;
            Work.push_back(E.From);
          }
        }
      }
    }

    for (size_t I = B.size(); I-- > 0;) {
      if (!WasPromoted[I] || FeedsControllingCmpp[I])
        continue;
      Reg G = OriginalGuard[I];
      int GuardDef = B.lastDefBefore(G, I);
      if (GuardDef < 0)
        continue; // guard defined outside the block; keep the promotion
      int GuardReady = Depth[static_cast<size_t>(GuardDef)] +
                       DG.nodeLatency(static_cast<uint32_t>(GuardDef));
      if (Depth[I] >= GuardReady) {
        B.ops()[I].setGuard(G);
        B.ops()[I].setFrpGuard(true);
        WasPromoted[I] = false;
        ++Stats.Demoted;
      }
    }
  }
  if (Stats.Demoted)
    LC.noteEdit(B);
  return Stats;
}
