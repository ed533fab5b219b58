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

} // namespace

/// Backward/union liveness over the dense dataflow solver
/// (analysis/Dataflow.h): each block runs its compiled steps, which fold
/// interior exits in at their op positions. The steps of block L are
/// Blocks[L].first up to Blocks[L].second: a full solve runs the cached
/// transfers, a partial one their projection onto the dirty registers.
class Liveness::Problem : public DataflowProblem {
public:
  using Span = std::pair<const Step *, const Step *>;

  Problem(const Liveness &L, const std::vector<Span> &Blocks,
          const BitVector &Observable)
      : L(L), Blocks(Blocks), Observable(Observable) {}

  Direction direction() const override { return Direction::Backward; }
  Meet meet() const override { return Meet::Union; }
  size_t universeSize() const override { return Observable.size(); }
  void boundary(BitVector &V) const override { V.orWith(Observable); }

  void transfer(size_t LayoutIdx, BitVector &V,
                const std::vector<BitVector> &InSets) const override {
    for (const Step *S = Blocks[LayoutIdx].first,
                    *E = Blocks[LayoutIdx].second;
         S != E; ++S) {
      switch (S->K) {
      case Step::OrObservable:
        V.orWith(Observable);
        break;
      case Step::OrTarget:
        if (int T = L.layoutOf(S->Idx); T >= 0)
          V.orWith(InSets[static_cast<size_t>(T)]);
        break;
      case Step::Kill:
        V.reset(S->Idx);
        break;
      case Step::Gen:
        V.set(S->Idx);
        break;
      }
    }
  }

private:
  const Liveness &L;
  const std::vector<Span> &Blocks;
  const BitVector &Observable;
};

namespace {

/// True when \p A and \p B hold the same exit targets, in any order and
/// multiplicity.
bool sameTargets(std::vector<BlockId> A, std::vector<BlockId> B) {
  std::sort(A.begin(), A.end());
  A.erase(std::unique(A.begin(), A.end()), A.end());
  std::sort(B.begin(), B.end());
  B.erase(std::unique(B.begin(), B.end()), B.end());
  return A == B;
}

} // namespace

std::vector<std::pair<uint32_t, uint32_t>>
Liveness::equations(const std::vector<Step> &Steps) {
  std::vector<std::pair<uint32_t, uint32_t>> Eqs;
  uint32_t Ahead = 0;
  // The steps run backward, so their reverse is program order.
  for (auto S = Steps.rbegin(), E = Steps.rend(); S != E; ++S) {
    if (S->K == Step::OrObservable || S->K == Step::OrTarget)
      ++Ahead;
    else
      Eqs.emplace_back(S->Idx, S->K == Step::Gen ? 0 : Ahead + 1);
  }
  // Keep each register's first mention.
  auto ByReg = [](const auto &A, const auto &B) { return A.first < B.first; };
  std::stable_sort(Eqs.begin(), Eqs.end(), ByReg);
  Eqs.erase(std::unique(Eqs.begin(), Eqs.end(),
                        [](const auto &A, const auto &B) {
                          return A.first == B.first;
                        }),
            Eqs.end());
  return Eqs;
}

Liveness::Liveness(const Function &F) : N(F), Observable(N.size()) {
  for (Reg R : F.observableRegs())
    if (int I = N.indexOf(R); I >= 0)
      Observable.set(static_cast<size_t>(I));
  readLayout(F);
  for (size_t L = 0, E = Layout.size(); L != E; ++L)
    Transfers[Layout[L]] = compile(F, L);
  solveAll();
}

Liveness::Transfer Liveness::compile(const Function &F, size_t LayoutIdx) {
  const Block &B = F.block(LayoutIdx);
  std::vector<BlockExit> BlockExits = blockExits(F, LayoutIdx);
  Transfer T;
  T.Compiled = true;
  for (const BlockExit &E : BlockExits) {
    T.Exits.push_back(E.Target);
    T.FallsThrough |= E.isFallThrough();
  }
  auto Add = [&](Step::Kind K, Reg R) {
    int I = N.insert(R);
    if (I >= 0)
      T.Steps.push_back(Step{K, static_cast<uint32_t>(I)});
  };
  for (size_t OI = B.size(); OI-- > 0;) {
    const Operation &Op = B.ops()[OI];
    // Interior exits add their targets' live-ins at the exit point.
    if (Op.isControl()) {
      for (const BlockExit &E : BlockExits) {
        if (E.OpIdx != static_cast<int>(OI))
          continue;
        T.Steps.push_back(E.Target == InvalidBlockId
                              ? Step{Step::OrObservable, 0}
                              : Step{Step::OrTarget, E.Target});
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
  return T;
}

bool Liveness::readLayout(const Function &F) {
  bool Changed = Layout.size() != F.numBlocks();
  Layout.resize(F.numBlocks());
  for (size_t L = 0, E = Layout.size(); L != E; ++L) {
    BlockId Id = F.block(L).getId();
    Changed |= Layout[L] != Id;
    Layout[L] = Id;
  }
  if (!Changed)
    return false;
  LayoutOf.assign(LayoutOf.size(), -1);
  for (size_t L = 0, E = Layout.size(); L != E; ++L) {
    if (Layout[L] >= LayoutOf.size())
      LayoutOf.resize(static_cast<size_t>(Layout[L]) + 1, -1);
    LayoutOf[Layout[L]] = static_cast<int>(L);
  }
  // Drop the transfers of removed blocks; make room for new ones.
  Transfers.resize(LayoutOf.size());
  for (size_t Id = 0, E = Transfers.size(); Id != E; ++Id)
    if (LayoutOf[Id] < 0)
      Transfers[Id] = Transfer();
  return true;
}

void Liveness::solveAll() {
  Observable.resize(N.size());
  Exits.resize(Layout.size());
  // A register is upward-exposed in a block whose last step for it (its
  // first mention in program order) is a gen.
  Exposed.assign(N.size(), 0);
  std::vector<uint32_t> SeenIn(N.size(), ~0u);
  std::vector<Problem::Span> Blocks;
  for (size_t L = 0, E = Layout.size(); L != E; ++L) {
    const Transfer &T = Transfers[Layout[L]];
    Exits[L].clear();
    for (BlockId Target : T.Exits)
      Exits[L].push_back(layoutOf(Target));
    Blocks.emplace_back(T.Steps.data(), T.Steps.data() + T.Steps.size());
    for (auto S = T.Steps.rbegin(), SE = T.Steps.rend(); S != SE; ++S)
      if ((S->K == Step::Kill || S->K == Step::Gen) && SeenIn[S->Idx] != L) {
        SeenIn[S->Idx] = static_cast<uint32_t>(L);
        Exposed[S->Idx] += S->K == Step::Gen;
      }
  }
  Solution.emplace(Exits, Problem(*this, Blocks, Observable));
}

void Liveness::solveSome(const BitVector &Dirty) {
  // Dirty register I is bit Sub[I] of the sub-problem.
  std::vector<int32_t> Sub(N.size(), -1);
  int32_t SubSize = 0;
  BitVector SubObservable(Dirty.count());
  for (size_t I = Dirty.findFirst(); I != BitVector::npos;
       I = Dirty.findNext(I + 1)) {
    if (Observable.test(I))
      SubObservable.set(static_cast<size_t>(SubSize));
    Sub[I] = SubSize++;
  }
  // Project every block's steps onto the dirty registers once, so the
  // fixed point iterates over the few steps that can change them.
  std::vector<Step> Steps;
  std::vector<size_t> Begin;
  for (BlockId Id : Layout) {
    Begin.push_back(Steps.size());
    for (const Step &S : Transfers[Id].Steps) {
      if (S.K == Step::OrObservable || S.K == Step::OrTarget)
        Steps.push_back(S);
      else if (Sub[S.Idx] >= 0)
        Steps.push_back(Step{S.K, static_cast<uint32_t>(Sub[S.Idx])});
    }
  }
  Begin.push_back(Steps.size());
  std::vector<Problem::Span> Blocks;
  for (size_t L = 0, E = Layout.size(); L != E; ++L)
    Blocks.emplace_back(Steps.data() + Begin[L], Steps.data() + Begin[L + 1]);
  DataflowSolver Solved(Exits, Problem(*this, Blocks, SubObservable));
  Solution->patch(Solved, Dirty);
}

Liveness::Update Liveness::update(const Function &F,
                                  const std::vector<BlockId> &Edited) {
  bool Full = readLayout(F);

  // Recompile the reported blocks, the new ones, and those whose layout
  // successor changed (their fall-through exit moved).
  std::vector<size_t> Stale;
  for (size_t L = 0, E = Layout.size(); L != E; ++L) {
    const Transfer &T = Transfers[Layout[L]];
    BlockId Next = L + 1 < E ? Layout[L + 1] : InvalidBlockId;
    if (!T.Compiled || (T.FallsThrough && T.Exits.back() != Next))
      Stale.push_back(L);
  }
  for (BlockId Id : Edited)
    if (int L = layoutOf(Id); L >= 0)
      Stale.push_back(static_cast<size_t>(L));
  std::sort(Stale.begin(), Stale.end());
  Stale.erase(std::unique(Stale.begin(), Stale.end()), Stale.end());

  // The registers whose equation changed in some recompiled block, and
  // the changes to the upward-exposure counts.
  std::vector<uint32_t> Touched;
  std::vector<std::pair<uint32_t, int32_t>> Moves;
  for (size_t L : Stale) {
    Transfer New = compile(F, L);
    Transfer &Old = Transfers[Layout[L]];
    if (Old.Compiled && Old.Steps == New.Steps && Old.Exits == New.Exits)
      continue;
    if (!Old.Compiled || !sameTargets(Old.Exits, New.Exits))
      Full = true;
    if (!Full) {
      // With the same exits in the same order both transfers have the
      // same exit steps, and a register's equation is its code in
      // equations(); otherwise every register either mentions is dirty.
      // Both lists are sorted by register: walk them together, with
      // Unmentioned standing for the register past a list's end and for
      // the code of a register a transfer does not mention.
      bool SameExits = Old.Exits == New.Exits;
      auto OldEqs = equations(Old.Steps), NewEqs = equations(New.Steps);
      constexpr uint32_t Unmentioned = ~0u;
      for (auto I = OldEqs.begin(), J = NewEqs.begin();
           I != OldEqs.end() || J != NewEqs.end();) {
        uint32_t R = std::min(I != OldEqs.end() ? I->first : Unmentioned,
                              J != NewEqs.end() ? J->first : Unmentioned);
        uint32_t Was = I != OldEqs.end() && I->first == R ? (I++)->second
                                                          : Unmentioned;
        uint32_t Is = J != NewEqs.end() && J->first == R ? (J++)->second
                                                         : Unmentioned;
        if (!SameExits || Was != Is)
          Touched.push_back(R);
        if ((Was == 0) != (Is == 0))
          Moves.emplace_back(R, Is == 0 ? 1 : -1);
      }
      Exits[L].clear();
      for (BlockId T : New.Exits)
        Exits[L].push_back(layoutOf(T));
    }
    Old = std::move(New);
  }

  if (Full) {
    solveAll();
    return Update::Full;
  }
  // A register that is not observable and upward-exposed in no block is
  // live at no block boundary; one that is so both before and after the
  // edit keeps its all-clear solution.
  Observable.resize(N.size());
  Exposed.resize(N.size());
  BitVector Dirty(N.size());
  for (uint32_t I : Touched)
    if (Observable.test(I) || Exposed[I] > 0)
      Dirty.set(I);
  for (auto [I, D] : Moves)
    Exposed[I] += D;
  for (uint32_t I : Touched)
    if (Exposed[I] > 0)
      Dirty.set(I);
  if (Dirty.none()) {
    Solution->grow(N.size());
    return Update::None;
  }
  solveSome(Dirty);
  return Update::Partial;
}

LiveSet Liveness::liveIn(BlockId B) const {
  int L = layoutOf(B);
  return L < 0 ? LiveSet() : LiveSet(Solution->in(static_cast<size_t>(L)), N);
}

LiveSet Liveness::liveOut(BlockId B) const {
  int L = layoutOf(B);
  return L < 0 ? LiveSet() : LiveSet(Solution->out(static_cast<size_t>(L)), N);
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
  if (!L) {
    L = std::make_unique<Liveness>(F);
    ++Solves;
  } else {
    switch (L->update(F, Edited)) {
    case Liveness::Update::Full:
      ++Solves;
      break;
    case Liveness::Update::Partial:
      ++PartialSolves;
      break;
    case Liveness::Update::None:
      break;
    }
  }
  Edited.clear();
  return *L;
}

//===----------------------------------------------------------------------===//
// PredicatedLiveness
//===----------------------------------------------------------------------===//

PredicatedLiveness::PredicatedLiveness(const Function &F, const Block &B,
                                       RegionPQS &PQS, const Liveness &L)
    : N(L.numbering()), NumPoints(B.size() + 1) {
  BDD &Mgr = PQS.bdd();
  const std::vector<Operation> &Ops = B.ops();

  // The state at the current program point, dense over the numbering:
  // Cur[I] is the condition under which register I is live. Each change
  // is logged with the point it takes effect at. The true predicate has
  // no index; it is never written, so no query asks about it.
  std::vector<BDD::NodeRef> Cur(N.size(), BDD::False);
  struct Logged {
    uint32_t Idx;
    Change C;
  };
  std::vector<Logged> Walk;
  uint32_t Point = static_cast<uint32_t>(Ops.size());
  auto Set = [&](size_t I, BDD::NodeRef Cond) {
    if (Cur[I] == Cond)
      return;
    Cur[I] = Cond;
    Walk.push_back(Logged{static_cast<uint32_t>(I), Change{Point, Cond}});
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
    BitVector Live(N.size());
    L.liveIn(F.block(static_cast<size_t>(LayoutIdx) + 1).getId())
        .orInto(Live);
    for (size_t I = Live.findFirst(); I != BitVector::npos;
         I = Live.findNext(I + 1))
      Set(I, BDD::True);
  } else if (FallsThrough) {
    for (Reg R : F.observableRegs()) {
      int I = N.indexOf(R);
      if (I >= 0)
        Set(static_cast<size_t>(I), BDD::True);
    }
  }

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
    Point = static_cast<uint32_t>(I);

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
  }

  // Group the log by register, keeping walk order within each register.
  Begin.assign(N.size() + 1, 0);
  for (const Logged &E : Walk)
    ++Begin[E.Idx + 1];
  for (size_t I = 1; I < Begin.size(); ++I)
    Begin[I] += Begin[I - 1];
  Log.resize(Walk.size());
  for (const Logged &E : Walk)
    Log[Begin[E.Idx]++] = E.C;
  // Each Begin[I] now holds register I's end; shift back to starts.
  for (size_t I = Begin.size() - 1; I > 0; --I)
    Begin[I] = Begin[I - 1];
  Begin[0] = 0;
}

BDD::NodeRef PredicatedLiveness::get(size_t Point, Reg R) const {
  int I = N.indexOf(R);
  if (I < 0 || static_cast<size_t>(I) + 1 >= Begin.size())
    return BDD::False;
  auto First = Log.begin() + Begin[static_cast<size_t>(I)];
  auto Last = Log.begin() + Begin[static_cast<size_t>(I) + 1];
  // The changes at points from Point on come first; the last of them
  // holds at Point.
  auto It = std::partition_point(First, Last, [&](const Change &C) {
    return C.Point >= Point;
  });
  return It == First ? BDD::False : std::prev(It)->Cond;
}

BDD::NodeRef PredicatedLiveness::liveAfter(size_t OpIdx, Reg R) const {
  assert(OpIdx + 1 < NumPoints);
  return get(OpIdx + 1, R);
}

BDD::NodeRef PredicatedLiveness::liveBefore(size_t OpIdx, Reg R) const {
  assert(OpIdx < NumPoints);
  return get(OpIdx, R);
}
