//===- analysis/Liveness.cpp - Register liveness ---------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "support/Error.h"

#include <algorithm>

using namespace cpr;

namespace {

/// Returns true if \p Op always writes destination slot \p D when control
/// reaches it (so the definition kills liveness even in set analysis).
/// FRP-positional guards (isFrpGuard) are true whenever control reaches
/// the operation in program order, so such definitions kill as well.
bool defAlwaysWrites(const Operation &Op, const DefSlot &D) {
  if (Op.isCmpp())
    // UN/UC targets always write (Table 1); wired targets may not.
    return D.Act == CmppAction::UN || D.Act == CmppAction::UC;
  return Op.getGuard().isTruePred() || Op.isFrpGuard();
}

/// Backward/union liveness over the dense dataflow solver
/// (analysis/Dataflow.h). The transfer folds interior exits at their op
/// positions. Each block's transfer is compiled once, before the solve,
/// into a list of bit operations in reverse op order; iterations of the
/// fixed point then touch no IR.
class LivenessProblem : public DataflowProblem {
public:
  LivenessProblem(const Function &F, const RegNumbering &N,
                  const BitVector &Observable,
                  const std::vector<int> &LayoutOf)
      : N(N), Observable(Observable) {
    Begin.reserve(F.numBlocks() + 1);
    for (size_t L = 0, E = F.numBlocks(); L != E; ++L) {
      Begin.push_back(Steps.size());
      compile(F, L, LayoutOf);
    }
    Begin.push_back(Steps.size());
  }

  Direction direction() const override { return Direction::Backward; }
  Meet meet() const override { return Meet::Union; }
  size_t universeSize() const override { return N.size(); }
  void boundary(BitVector &V) const override { V.orWith(Observable); }

  void transfer(size_t LayoutIdx, BitVector &V,
                const std::vector<BitVector> &InSets) const override {
    for (size_t I = Begin[LayoutIdx], E = Begin[LayoutIdx + 1]; I != E; ++I) {
      const Step &S = Steps[I];
      switch (S.K) {
      case Step::OrObservable:
        V.orWith(Observable);
        break;
      case Step::OrTarget:
        V.orWith(InSets[S.Idx]);
        break;
      case Step::Kill:
        V.reset(S.Idx);
        break;
      case Step::Gen:
        V.set(S.Idx);
        break;
      }
    }
  }

private:
  /// One bit operation of a compiled block transfer.
  struct Step {
    enum Kind : uint8_t { OrObservable, OrTarget, Kill, Gen } K;
    /// Target layout index (OrTarget) or register bit (Kill, Gen).
    uint32_t Idx;
  };

  /// Appends block \p LayoutIdx's transfer to Steps.
  void compile(const Function &F, size_t LayoutIdx,
               const std::vector<int> &LayoutOf) {
    const Block &B = F.block(LayoutIdx);
    std::vector<BlockExit> Exits = blockExits(F, LayoutIdx);
    auto Add = [&](Step::Kind K, Reg R) {
      int I = N.indexOf(R);
      if (I >= 0)
        Steps.push_back(Step{K, static_cast<uint32_t>(I)});
    };
    for (size_t OI = B.size(); OI-- > 0;) {
      const Operation &Op = B.ops()[OI];
      // Interior exits add their targets' live-ins at the exit point.
      if (Op.isControl()) {
        for (const BlockExit &E : Exits) {
          if (E.OpIdx != static_cast<int>(OI))
            continue;
          if (E.Target == InvalidBlockId) {
            Steps.push_back(Step{Step::OrObservable, 0});
            continue;
          }
          int T = E.Target < LayoutOf.size() ? LayoutOf[E.Target] : -1;
          if (T >= 0)
            Steps.push_back(Step{Step::OrTarget, static_cast<uint32_t>(T)});
        }
      }
      // Backward transfer: kill sure definitions, then gen reads.
      for (const DefSlot &D : Op.defs())
        if (defAlwaysWrites(Op, D))
          Add(Step::Kill, D.R);
      if (!Op.getGuard().isTruePred())
        Add(Step::Gen, Op.getGuard());
      for (const Operand &S : Op.srcs())
        if (S.isReg())
          Add(Step::Gen, S.getReg());
    }
  }

  const RegNumbering &N;
  const BitVector &Observable;
  /// Every block's compiled transfer, in reverse op order; block L's steps
  /// are Steps[Begin[L]] up to Steps[Begin[L + 1]].
  std::vector<Step> Steps;
  std::vector<size_t> Begin;
};

/// The observable registers of \p F as a set over \p N.
BitVector observableBits(const Function &F, const RegNumbering &N) {
  BitVector V(N.size());
  for (Reg R : F.observableRegs()) {
    int I = N.indexOf(R);
    if (I >= 0)
      V.set(static_cast<size_t>(I));
  }
  return V;
}

} // namespace

Liveness::Liveness(const Function &F)
    : N(F), Observable(observableBits(F, N)), LayoutOf(layoutIndexMap(F)),
      Solution(F, LivenessProblem(F, N, Observable, LayoutOf)) {}

LiveSet Liveness::liveIn(BlockId B) const {
  int L = layoutOf(B);
  return L < 0 ? LiveSet() : LiveSet(Solution.in(static_cast<size_t>(L)), N);
}

LiveSet Liveness::liveOut(BlockId B) const {
  int L = layoutOf(B);
  return L < 0 ? LiveSet() : LiveSet(Solution.out(static_cast<size_t>(L)), N);
}

LiveSet Liveness::liveAtExit(const Block &B, size_t OpIdx) const {
  const Operation &Op = B.ops()[OpIdx];
  assert(Op.isControl() && "liveAtExit requires a control operation");
  if (Op.isBranch()) {
    BlockId Target = resolveBranchTarget(B, OpIdx);
    if (Target != InvalidBlockId)
      return liveIn(Target);
  }
  // Halt/trap (and an unresolved branch) observe the observable registers.
  return LiveSet(Observable, N);
}

const Liveness &LivenessCache::get() {
  std::optional<Liveness> &Current = Editing ? Tentative : Committed;
  if (!Current) {
    Current.emplace(F);
    ++Solves;
  }
  return *Current;
}

//===----------------------------------------------------------------------===//
// PredicatedLiveness
//===----------------------------------------------------------------------===//

PredicatedLiveness::PredicatedLiveness(const Function &F, const Block &B,
                                       RegionPQS &PQS, const Liveness &L)
    : N(L.numbering()) {
  BDD &Mgr = PQS.bdd();
  const std::vector<Operation> &Ops = B.ops();
  LiveBeforeOp.resize(Ops.size() + 1);

  // The state at the current program point, dense over the numbering:
  // Cur[I] is the condition under which register I is live, and Live
  // marks the entries that are not False. The true predicate has no
  // index; it is never written, so no query asks about it.
  std::vector<BDD::NodeRef> Cur(N.size(), BDD::False);
  BitVector Live(N.size());
  auto Set = [&](size_t I, BDD::NodeRef Cond) {
    Cur[I] = Cond;
    if (Cond == BDD::False)
      Live.reset(I);
    else
      Live.set(I);
  };
  auto Snapshot = [&](std::vector<LiveCond> &Out) {
    for (size_t I = Live.findFirst(); I != BitVector::npos;
         I = Live.findNext(I + 1))
      Out.push_back(LiveCond{static_cast<uint32_t>(I), Cur[I]});
  };

  // Block-end state: the layout successor's live-in, but only when control
  // can actually reach the end of the block (an unguarded halt/trap makes
  // the fall-through point unreachable).
  int LayoutIdx = F.layoutIndex(B.getId());
  bool FallsThrough = false;
  if (LayoutIdx >= 0) {
    for (const BlockExit &E : blockExits(F, static_cast<size_t>(LayoutIdx)))
      if (E.isFallThrough())
        FallsThrough = true;
  }
  if (FallsThrough && LayoutIdx >= 0 &&
      static_cast<size_t>(LayoutIdx) + 1 < F.numBlocks()) {
    L.liveIn(F.block(static_cast<size_t>(LayoutIdx) + 1).getId())
        .orInto(Live);
    for (size_t I = Live.findFirst(); I != BitVector::npos;
         I = Live.findNext(I + 1))
      Cur[I] = BDD::True;
  } else if (FallsThrough) {
    for (Reg R : F.observableRegs()) {
      int I = N.indexOf(R);
      if (I >= 0)
        Set(static_cast<size_t>(I), BDD::True);
    }
  }
  Snapshot(LiveBeforeOp[Ops.size()]);

  auto OrInto = [&](Reg R, BDD::NodeRef Cond) {
    int I = N.indexOf(R);
    if (I < 0)
      return;
    BDD::NodeRef New = Mgr.mkOr(Cur[static_cast<size_t>(I)], Cond);
    if (New == BDD::Invalid)
      New = BDD::True; // conservative: live
    Set(static_cast<size_t>(I), New);
  };

  for (size_t I = Ops.size(); I-- > 0;) {
    const Operation &Op = Ops[I];
    BDD::NodeRef G = PQS.guardExpr(I);

    // Exits merge in their target's live set under the exit condition.
    if (Op.isBranch()) {
      BDD::NodeRef Taken = PQS.takenExpr(I);
      for (Reg R : L.liveAtExit(B, I))
        OrInto(R, Taken);
    } else if (Op.getOpcode() == Opcode::Halt ||
               Op.getOpcode() == Opcode::Trap) {
      for (Reg R : F.observableRegs())
        OrInto(R, G);
    }

    // Kill definitions under their write conditions.
    for (const DefSlot &D : Op.defs()) {
      BDD::NodeRef WriteCond = BDD::False;
      if (Op.isCmpp()) {
        switch (D.Act) {
        case CmppAction::UN:
        case CmppAction::UC:
          WriteCond = BDD::True; // unconditional targets always write
          break;
        default:
          WriteCond = BDD::False; // wired writes: conservative no-kill
          break;
        }
      } else {
        // Positional (FRP) guards are true whenever the op is reached.
        WriteCond = Op.isFrpGuard() ? BDD::True : G;
      }
      int DI = N.indexOf(D.R);
      if (WriteCond != BDD::False && DI >= 0) {
        BDD::NodeRef Old = Cur[static_cast<size_t>(DI)];
        BDD::NodeRef New = Mgr.mkAnd(Old, Mgr.mkNot(WriteCond));
        if (New == BDD::Invalid)
          New = Old; // conservative: keep live
        Set(static_cast<size_t>(DI), New);
      }
    }

    // Uses become live under the guard condition (even a cmpp's
    // unconditional targets write a value independent of the sources when
    // the guard is false); the guard register itself is read
    // unconditionally to decide nullification.
    if (!Op.getGuard().isTruePred())
      OrInto(Op.getGuard(), BDD::True);
    if (Op.isBranch()) {
      // The predicate decides whether the branch takes (read whenever the
      // branch issues); the target register matters only when it takes.
      OrInto(Op.branchPred(), BDD::True);
      OrInto(Op.branchTargetReg(), PQS.takenExpr(I));
    } else {
      for (const Operand &S : Op.srcs())
        if (S.isReg())
          OrInto(S.getReg(), G);
    }

    Snapshot(LiveBeforeOp[I]);
  }
}

BDD::NodeRef PredicatedLiveness::get(size_t Point, Reg R) const {
  int I = N.indexOf(R);
  if (I < 0)
    return BDD::False;
  const std::vector<LiveCond> &At = LiveBeforeOp[Point];
  auto It = std::lower_bound(
      At.begin(), At.end(), static_cast<uint32_t>(I),
      [](const LiveCond &C, uint32_t Idx) { return C.Idx < Idx; });
  return It != At.end() && It->Idx == static_cast<uint32_t>(I) ? It->Cond
                                                               : BDD::False;
}

BDD::NodeRef PredicatedLiveness::liveAfter(size_t OpIdx, Reg R) const {
  assert(OpIdx + 1 < LiveBeforeOp.size());
  return get(OpIdx + 1, R);
}

BDD::NodeRef PredicatedLiveness::liveBefore(size_t OpIdx, Reg R) const {
  assert(OpIdx < LiveBeforeOp.size());
  return get(OpIdx, R);
}
