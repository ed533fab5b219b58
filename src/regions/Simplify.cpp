//===- regions/Simplify.cpp - Local scalar optimizations -------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "regions/Simplify.h"

#include "support/Error.h"

#include <map>
#include <unordered_map>

using namespace cpr;

namespace {

/// Value identity for CSE: (opcode, operand identities) where a register
/// identity is its defining epoch.
struct ExprKey {
  Opcode Opc;
  // Per operand: (isImm, imm) or (reg class/id, epoch).
  struct Part {
    bool IsImm;
    int64_t Imm;
    Reg R;
    uint64_t Epoch;
    bool operator<(const Part &O) const {
      if (IsImm != O.IsImm)
        return IsImm < O.IsImm;
      if (IsImm)
        return Imm < O.Imm;
      if (R != O.R)
        return R < O.R;
      return Epoch < O.Epoch;
    }
  };
  Part A, B;

  bool operator<(const ExprKey &O) const {
    if (Opc != O.Opc)
      return Opc < O.Opc;
    if (A < O.A || O.A < A)
      return A < O.A;
    return B < O.B;
  }
};

} // namespace

SimplifyStats cpr::simplifyBlock(Function &F, Block &B) {
  (void)F;
  SimplifyStats Stats;

  // Register facts. Epochs change on every definition.
  std::unordered_map<Reg, uint64_t> Epoch;
  uint64_t NextEpoch = 1;
  std::unordered_map<Reg, int64_t> Constants;
  std::unordered_map<Reg, Reg> Copies; // dst -> src (with src epoch)
  std::unordered_map<Reg, uint64_t> CopySrcEpoch;
  // Available expressions: key -> (result reg, its epoch).
  std::map<ExprKey, std::pair<Reg, uint64_t>> Exprs;

  auto CurEpoch = [&](Reg R) {
    auto It = Epoch.find(R);
    return It == Epoch.end() ? uint64_t{0} : It->second;
  };
  auto Invalidate = [&](Reg R) {
    Epoch[R] = NextEpoch++;
    Constants.erase(R);
    Copies.erase(R);
  };

  for (Operation &Op : B.ops()) {
    bool Unconditional = Op.getGuard().isTruePred();

    // --- Use rewriting ---------------------------------------------------
    for (Operand &S : Op.srcs()) {
      if (!S.isReg() || S.getReg().getClass() != RegClass::GPR)
        continue;
      Reg R = S.getReg();
      // Copy propagation (only when the copied-from value is unchanged).
      auto CIt = Copies.find(R);
      if (CIt != Copies.end() &&
          CurEpoch(CIt->second) == CopySrcEpoch[R]) {
        S = Operand::reg(CIt->second);
        R = CIt->second;
        ++Stats.CopiesPropagated;
      }
      // Constant propagation.
      auto KIt = Constants.find(R);
      if (KIt != Constants.end()) {
        S = Operand::imm(KIt->second);
        ++Stats.ConstantsFolded;
      }
    }

    // --- Folding / CSE of pure integer arithmetic ------------------------
    bool IsFoldable = opcodeIsIntArith(Op.getOpcode()) &&
                      Op.getOpcode() != Opcode::Mov &&
                      Op.defs().size() == 1 &&
                      Op.defs()[0].R.getClass() == RegClass::GPR;
    if (IsFoldable && Op.srcs()[0].isImm() && Op.srcs()[1].isImm()) {
      int64_t V = evalIntArith(Op.getOpcode(), Op.srcs()[0].getImm(),
                               Op.srcs()[1].getImm());
      Reg Dst = Op.defs()[0].R;
      Operation NewOp(Op.getId(), Opcode::Mov);
      NewOp.setGuard(Op.getGuard());
      NewOp.setFrpGuard(Op.isFrpGuard());
      NewOp.addDef(Dst);
      NewOp.addSrc(Operand::imm(V));
      Op = NewOp;
      ++Stats.ConstantsFolded;
    } else if (IsFoldable && Unconditional) {
      ExprKey Key;
      Key.Opc = Op.getOpcode();
      auto MakePart = [&](const Operand &S) {
        ExprKey::Part P;
        P.IsImm = S.isImm();
        if (P.IsImm) {
          P.Imm = S.getImm();
          P.R = Reg();
          P.Epoch = 0;
        } else {
          P.Imm = 0;
          P.R = S.getReg();
          P.Epoch = CurEpoch(S.getReg());
        }
        return P;
      };
      Key.A = MakePart(Op.srcs()[0]);
      Key.B = MakePart(Op.srcs()[1]);
      auto EIt = Exprs.find(Key);
      if (EIt != Exprs.end() &&
          CurEpoch(EIt->second.first) == EIt->second.second) {
        // Same value already available: become a copy of it.
        Reg Dst = Op.defs()[0].R;
        Reg Src = EIt->second.first;
        if (Src != Dst) {
          Operation NewOp(Op.getId(), Opcode::Mov);
          NewOp.setGuard(Op.getGuard());
          NewOp.addDef(Dst);
          NewOp.addSrc(Operand::reg(Src));
          Op = NewOp;
          ++Stats.ExpressionsReused;
        }
      } else {
        // Record after the definition below (epoch known then).
        // Deferred via post-def insertion handled after Invalidate.
        // Stash the key in a local and fall through.
        for (const DefSlot &D : Op.defs())
          Invalidate(D.R);
        Exprs[Key] = {Op.defs()[0].R, CurEpoch(Op.defs()[0].R)};
        continue; // defs already invalidated
      }
    }

    // --- Fact updates on definitions -------------------------------------
    for (const DefSlot &D : Op.defs())
      Invalidate(D.R);

    if (Op.getOpcode() == Opcode::Mov && Unconditional &&
        Op.defs().size() == 1 &&
        Op.defs()[0].R.getClass() == RegClass::GPR) {
      Reg Dst = Op.defs()[0].R;
      const Operand &Src = Op.srcs()[0];
      if (Src.isImm()) {
        Constants[Dst] = Src.getImm();
      } else if (Src.isReg() && Src.getReg().getClass() == RegClass::GPR &&
                 Src.getReg() != Dst) {
        Copies[Dst] = Src.getReg();
        CopySrcEpoch[Dst] = CurEpoch(Src.getReg());
      }
    }
  }
  return Stats;
}

SimplifyStats cpr::simplifyFunction(Function &F) {
  SimplifyStats Total;
  for (size_t I = 0, E = F.numBlocks(); I != E; ++I) {
    Block &B = F.block(I);
    if (B.isCompensation())
      continue;
    SimplifyStats S = simplifyBlock(F, B);
    Total.ConstantsFolded += S.ConstantsFolded;
    Total.CopiesPropagated += S.CopiesPropagated;
    Total.ExpressionsReused += S.ExpressionsReused;
  }
  return Total;
}
