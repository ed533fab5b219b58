//===- regions/DeadCodeElim.cpp - Dead code elimination --------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "regions/DeadCodeElim.h"

#include "analysis/CFG.h"
#include "analysis/Liveness.h"

using namespace cpr;

namespace {

/// One DCE sweep over the solution \p LC holds at its start; reports the
/// blocks it edited afterwards. Returns true if anything changed.
bool sweepOnce(Function &F, LivenessCache &LC, DCEStats &Stats) {
  const Liveness &LV = LC.get();
  const RegNumbering &N = LV.numbering();
  // The working set is over the liveness numbering, which holds every
  // register the function mentions except the hardwired true predicate;
  // that one is never live (it is never written).
  BitVector Live(N.size());
  auto IsLive = [&](Reg R) {
    int I = N.indexOf(R);
    return I >= 0 && Live.test(static_cast<size_t>(I));
  };
  auto MakeLive = [&](Reg R) {
    int I = N.indexOf(R);
    if (I >= 0)
      Live.set(static_cast<size_t>(I));
  };
  std::vector<const Block *> Edited;

  for (size_t BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
    Block &B = F.block(BI);

    // Intra-block backward liveness, seeded with the fall-through
    // component alone (liveOut over-approximates: it unions all exits),
    // folding in interior exit contributions at their positions.
    Live.reset();
    if (BI + 1 < F.numBlocks())
      LV.liveIn(F.block(BI + 1).getId()).orInto(Live);
    for (Reg R : F.observableRegs())
      MakeLive(R);

    // Walk backward, marking dead defs.
    std::vector<bool> RemoveOp(B.size(), false);
    std::vector<std::vector<bool>> RemoveDef(B.size());
    for (size_t OI = B.size(); OI-- > 0;) {
      Operation &Op = B.ops()[OI];
      if (Op.isControl())
        LV.liveAtExit(B, OI).orInto(Live);

      RemoveDef[OI].assign(Op.defs().size(), false);
      bool AnyLiveDef = false;
      for (size_t DI = 0; DI < Op.defs().size(); ++DI) {
        if (IsLive(Op.defs()[DI].R))
          AnyLiveDef = true;
        else
          RemoveDef[OI][DI] = true;
      }

      bool MustKeep = Op.hasSideEffects() || Op.getOpcode() == Opcode::Pbr;
      // Pbr results feed branches; keep them only if some branch uses the
      // BTR (covered by liveness: if the branch exists, the BTR is live).
      if (Op.getOpcode() == Opcode::Pbr && !AnyLiveDef &&
          !IsLive(Op.defs()[0].R))
        MustKeep = false;

      if (!MustKeep && !AnyLiveDef && !Op.defs().empty()) {
        RemoveOp[OI] = true;
        continue; // a removed op contributes no uses or kills
      }
      if (Op.getOpcode() == Opcode::Nop) {
        RemoveOp[OI] = true;
        continue;
      }

      // Standard backward transfer.
      for (size_t DI = 0; DI < Op.defs().size(); ++DI) {
        const DefSlot &D = Op.defs()[DI];
        bool AlwaysWrites =
            Op.isCmpp()
                ? (D.Act == CmppAction::UN || D.Act == CmppAction::UC)
                : (Op.getGuard().isTruePred() || Op.isFrpGuard());
        int I = N.indexOf(D.R);
        if (AlwaysWrites && !RemoveDef[OI][DI] && I >= 0)
          Live.reset(static_cast<size_t>(I));
      }
      if (!Op.getGuard().isTruePred())
        MakeLive(Op.getGuard());
      for (const Operand &S : Op.srcs())
        if (S.isReg())
          MakeLive(S.getReg());
    }

    // Apply removals (backward so indices stay valid).
    bool Changed = false;
    for (size_t OI = B.size(); OI-- > 0;) {
      if (RemoveOp[OI]) {
        B.ops().erase(B.ops().begin() + static_cast<ptrdiff_t>(OI));
        ++Stats.OpsRemoved;
        Changed = true;
        continue;
      }
      Operation &Op = B.ops()[OI];
      if (!Op.isCmpp() || Op.defs().size() < 2)
        continue;
      for (size_t DI = Op.defs().size(); DI-- > 0;) {
        if (RemoveDef[OI][DI] && Op.defs().size() > 1) {
          Op.defs().erase(Op.defs().begin() + static_cast<ptrdiff_t>(DI));
          ++Stats.DestsRemoved;
          Changed = true;
        }
      }
    }
    if (Changed)
      Edited.push_back(&B);
  }
  // Reported only now, so that the whole sweep read one solution.
  for (const Block *B : Edited)
    LC.noteEdit(*B);
  return !Edited.empty();
}

} // namespace

DCEStats cpr::eliminateDeadCode(Function &F, LivenessCache *Cache) {
  LivenessCache Local(F);
  LivenessCache &LC = Cache ? *Cache : Local;
  DCEStats Stats;
  while (sweepOnce(F, LC, Stats)) {
  }
  return Stats;
}
