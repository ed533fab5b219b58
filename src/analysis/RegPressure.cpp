//===- analysis/RegPressure.cpp - Register pressure analysis ---------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/RegPressure.h"

#include "analysis/CFG.h"

#include <unordered_set>

using namespace cpr;

namespace {

/// The registers live at one program point. Unlike the liveness solution,
/// it also holds the true predicate once an operation reads it.
using RegSet = std::unordered_set<Reg>;

PressureReport snapshot(const RegSet &Live) {
  PressureReport R;
  for (Reg Reg : Live)
    ++R.Peak[static_cast<unsigned>(Reg.getClass())];
  return R;
}

} // namespace

PressureReport cpr::measureBlockPressure(const Function &F, const Block &B,
                                         const Liveness &LV) {
  PressureReport Peak;

  // Backward walk mirroring the liveness transfer, taking a pressure
  // snapshot at every program point.
  LiveSet Out = LV.liveOut(B.getId());
  RegSet Live(Out.begin(), Out.end());
  Peak.mergeMax(snapshot(Live));

  int LayoutIdx = F.layoutIndex(B.getId());
  std::vector<BlockExit> Exits =
      LayoutIdx >= 0 ? blockExits(F, static_cast<size_t>(LayoutIdx))
                     : std::vector<BlockExit>();

  for (size_t OI = B.size(); OI-- > 0;) {
    const Operation &Op = B.ops()[OI];
    if (Op.isControl()) {
      for (const BlockExit &E : Exits) {
        if (E.OpIdx != static_cast<int>(OI) || E.Target == InvalidBlockId)
          continue;
        LiveSet SuccIn = LV.liveIn(E.Target);
        Live.insert(SuccIn.begin(), SuccIn.end());
      }
      if (Op.getOpcode() == Opcode::Halt || Op.getOpcode() == Opcode::Trap)
        for (Reg R : F.observableRegs())
          Live.insert(R);
    }
    for (const DefSlot &D : Op.defs()) {
      bool AlwaysWrites =
          Op.isCmpp() ? (D.Act == CmppAction::UN || D.Act == CmppAction::UC)
                      : (Op.getGuard().isTruePred() || Op.isFrpGuard());
      if (AlwaysWrites)
        Live.erase(D.R);
    }
    if (!Op.getGuard().isTruePred())
      Live.insert(Op.getGuard());
    for (const Operand &S : Op.srcs())
      if (S.isReg())
        Live.insert(S.getReg());
    Peak.mergeMax(snapshot(Live));
  }
  return Peak;
}

PressureReport cpr::measureFunctionPressure(const Function &F) {
  Liveness LV(F);
  PressureReport Peak;
  for (size_t I = 0, E = F.numBlocks(); I != E; ++I)
    Peak.mergeMax(measureBlockPressure(F, F.block(I), LV));
  return Peak;
}
