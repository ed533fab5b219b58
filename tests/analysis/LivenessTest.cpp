//===- tests/analysis/LivenessTest.cpp - Liveness analysis tests ----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "analysis/CFG.h"
#include "analysis/PQS.h"
#include "fuzz/Generator.h"
#include "ir/IRParser.h"
#include "regions/FRPConversion.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace cpr;

namespace {

//===----------------------------------------------------------------------===//
// Reference: the hash-set fixed point Liveness used before it moved onto
// the dense solver, kept verbatim as the oracle for the property test.
//===----------------------------------------------------------------------===//

using RegSet = std::unordered_set<Reg>;

bool defAlwaysWritesLegacy(const Operation &Op, const DefSlot &D) {
  if (Op.isCmpp())
    return D.Act == CmppAction::UN || D.Act == CmppAction::UC;
  return Op.getGuard().isTruePred() || Op.isFrpGuard();
}

void transferSetLegacy(const Operation &Op, RegSet &Live) {
  for (const DefSlot &D : Op.defs())
    if (defAlwaysWritesLegacy(Op, D))
      Live.erase(D.R);
  if (!Op.getGuard().isTruePred())
    Live.insert(Op.getGuard());
  for (const Operand &S : Op.srcs())
    if (S.isReg())
      Live.insert(S.getReg());
}

struct LegacyLiveness {
  std::unordered_map<BlockId, RegSet> LiveInMap;
  std::unordered_map<BlockId, RegSet> LiveOutMap;
  RegSet ObservableSet;

  explicit LegacyLiveness(const Function &F) {
    for (Reg R : F.observableRegs())
      ObservableSet.insert(R);
    for (size_t I = 0, E = F.numBlocks(); I != E; ++I) {
      LiveInMap[F.block(I).getId()] = {};
      LiveOutMap[F.block(I).getId()] = {};
    }
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t BI = F.numBlocks(); BI-- > 0;) {
        const Block &B = F.block(BI);
        RegSet Out;
        for (const BlockExit &E : blockExits(F, BI)) {
          if (E.Target == InvalidBlockId) {
            Out.insert(ObservableSet.begin(), ObservableSet.end());
            continue;
          }
          const RegSet &SuccIn = LiveInMap[E.Target];
          Out.insert(SuccIn.begin(), SuccIn.end());
        }
        RegSet Live = Out;
        std::vector<BlockExit> Exits = blockExits(F, BI);
        for (size_t OI = B.size(); OI-- > 0;) {
          const Operation &Op = B.ops()[OI];
          if (Op.isControl()) {
            for (const BlockExit &E : Exits) {
              if (E.OpIdx != static_cast<int>(OI))
                continue;
              if (E.Target == InvalidBlockId)
                Live.insert(ObservableSet.begin(), ObservableSet.end());
              else {
                const RegSet &SuccIn = LiveInMap[E.Target];
                Live.insert(SuccIn.begin(), SuccIn.end());
              }
            }
          }
          transferSetLegacy(Op, Live);
        }
        if (Live != LiveInMap[B.getId()]) {
          LiveInMap[B.getId()] = Live;
          Changed = true;
        }
        LiveOutMap[B.getId()] = std::move(Out);
      }
    }
  }

  /// The set Liveness::liveAtExit answered from these maps.
  RegSet liveAtExit(const Block &B, size_t OpIdx) const {
    if (B.ops()[OpIdx].isBranch()) {
      BlockId Target = resolveBranchTarget(B, OpIdx);
      if (Target != InvalidBlockId) {
        auto It = LiveInMap.find(Target);
        return It == LiveInMap.end() ? RegSet() : It->second;
      }
    }
    return ObservableSet;
  }
};

/// \p Ref's registers in the order a LiveSet over \p N iterates them. The
/// numbering gives the hardwired true predicate no bit: it is never
/// written, so it cannot be dead anywhere. The reference counts an
/// unconditional branch's `T` operand as a use, so it is dropped here.
std::vector<Reg> inNumberingOrder(const RegSet &Ref, const RegNumbering &N) {
  std::vector<Reg> V;
  for (Reg R : Ref)
    if (!R.isTruePred())
      V.push_back(R);
  std::sort(V.begin(), V.end(), [&](Reg A, Reg B) {
    return N.indexOf(A) < N.indexOf(B);
  });
  return V;
}

std::vector<Reg> regsOf(LiveSet S) { return {S.begin(), S.end()}; }

TEST(LivenessTest, MatchesTheHashSetReferenceOnGeneratedPrograms) {
  // Region-grammar programs (branchy CFGs, nested loops) at three sizes,
  // five seeds each.
  size_t Blocks = 0, Exits = 0;
  for (unsigned MaxBlocks : {40u, 120u, 240u}) {
    GeneratorConfig Cfg;
    Cfg.MaxBlocks = MaxBlocks;
    Cfg.MaxLoopDepth = 3;
    Cfg.MaxItemsPerRegion = 8;
    Cfg.SyntheticFrac = 0.0;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      std::unique_ptr<Function> F =
          std::move(generateProgram(Seed * 7919, Cfg).Func);
      LegacyLiveness Ref(*F);
      Liveness LV(*F);
      const RegNumbering &N = LV.numbering();
      for (size_t L = 0; L < F->numBlocks(); ++L) {
        const Block &B = F->block(L);
        SCOPED_TRACE("MaxBlocks " + std::to_string(MaxBlocks) + " seed " +
                     std::to_string(Seed) + " block @" + B.getName());
        ASSERT_EQ(regsOf(LV.liveIn(B.getId())),
                  inNumberingOrder(Ref.LiveInMap.at(B.getId()), N));
        ASSERT_EQ(regsOf(LV.liveOut(B.getId())),
                  inNumberingOrder(Ref.LiveOutMap.at(B.getId()), N));
        ++Blocks;
        for (size_t OI = 0; OI < B.size(); ++OI) {
          if (!B.ops()[OI].isControl())
            continue;
          ASSERT_EQ(regsOf(LV.liveAtExit(B, OI)),
                    inNumberingOrder(Ref.liveAtExit(B, OI), N))
              << "exit at op " << OI;
          ++Exits;
        }
      }
    }
  }
  EXPECT_GT(Blocks, 1000u);
  EXPECT_GT(Exits, 1000u);
}

TEST(LiveSetTest, IteratesInNumberingOrder) {
  // First appearance: r9 (observable), then p2, r5, r1 in op order --
  // neither register order nor class order.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  r9 = add(r5, r1) if p2
  halt
}
)");
  Liveness LV(*F);
  const RegNumbering &N = LV.numbering();
  std::vector<Reg> In = regsOf(LV.liveIn(F->block(0).getId()));
  ASSERT_EQ(In, (std::vector<Reg>{Reg::gpr(9), Reg::pred(2), Reg::gpr(5),
                                  Reg::gpr(1)}));
  for (size_t I = 0; I + 1 < In.size(); ++I)
    EXPECT_LT(N.indexOf(In[I]), N.indexOf(In[I + 1]));
}

TEST(LiveSetTest, UnknownBlockAndAbsentRegisterReadEmpty) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r1
block @A:
  halt
}
)");
  Liveness LV(*F);
  BlockId Unknown = F->block(0).getId() + 100;
  EXPECT_TRUE(LV.liveIn(Unknown).empty());
  EXPECT_TRUE(LV.liveOut(Unknown).empty());
  EXPECT_EQ(LV.liveIn(Unknown).begin(), LV.liveIn(Unknown).end());
  EXPECT_EQ(LV.liveIn(InvalidBlockId).count(Reg::gpr(1)), 0u);
  LiveSet In = LV.liveIn(F->block(0).getId());
  EXPECT_EQ(In.count(Reg::gpr(1)), 1u);
  EXPECT_EQ(In.count(Reg::gpr(77)), 0u); // never mentioned
  EXPECT_EQ(In.count(Reg::truePred()), 0u);
  EXPECT_TRUE(LiveSet().empty());
}

TEST(LiveSetTest, HaltExitIsTheObservableSet) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r3, r2
block @A:
  r2 = mov(1)
  r3 = add(r2, r4)
  halt if p1
  r3 = mov(0)
  halt
}
)");
  Liveness LV(*F);
  const Block &A = F->block(0);
  for (size_t OI : {2u, 4u})
    EXPECT_EQ(regsOf(LV.liveAtExit(A, OI)),
              (std::vector<Reg>{Reg::gpr(3), Reg::gpr(2)}))
        << "halt at op " << OI;
}

TEST(LivenessTest, StraightLineUseDef) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  r1 = mov(5)
  r2 = add(r1, 1)
  r9 = add(r2, 1)
  halt
}
)");
  Liveness LV(*F);
  // Nothing is live into the entry (r1/r2 defined before use, r9 is the
  // observable computed inside).
  EXPECT_FALSE(LV.liveIn(F->block(0).getId()).count(Reg::gpr(1)));
  EXPECT_FALSE(LV.liveIn(F->block(0).getId()).count(Reg::gpr(2)));
}

TEST(LivenessTest, UseBeforeDefIsLiveIn) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  r2 = add(r1, 1)
  r1 = mov(0)
  halt
}
)");
  Liveness LV(*F);
  EXPECT_TRUE(LV.liveIn(F->block(0).getId()).count(Reg::gpr(1)));
}

TEST(LivenessTest, PredicatedDefDoesNotKill) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r1
block @A:
  r1 = mov(7) if p1
  halt
}
)");
  Liveness LV(*F);
  // The guarded mov may not execute; the incoming r1 can survive to the
  // observable read at halt.
  EXPECT_TRUE(LV.liveIn(F->block(0).getId()).count(Reg::gpr(1)));
}

TEST(LivenessTest, FrpGuardedDefKills) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r1
block @A:
  r1 = mov(7) if p1 frp
  halt
}
)");
  Liveness LV(*F);
  // A positional (FRP) guard is true whenever the op is reached, so the
  // definition kills.
  EXPECT_FALSE(LV.liveIn(F->block(0).getId()).count(Reg::gpr(1)));
}

TEST(LivenessTest, BranchTargetContributesLiveness) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  p1:un = cmpp.lt(r1, 5)
  b1 = pbr(@X)
  branch(p1, b1)
  r9 = mov(0)
  halt
block @X:
  r9 = add(r7, 1)
  halt
}
)");
  Liveness LV(*F);
  // r7 is read in @X, so it is live at A's exit branch and into A.
  EXPECT_TRUE(LV.liveIn(F->block(0).getId()).count(Reg::gpr(7)));
  const Block &A = F->block(0);
  LiveSet AtExit = LV.liveAtExit(A, 2);
  EXPECT_TRUE(AtExit.count(Reg::gpr(7)));
  EXPECT_FALSE(AtExit.count(Reg::gpr(9)));
}

TEST(LivenessTest, LoopCarriedValue) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r1
block @Loop:
  r1 = add(r1, 1)
  p1:un = cmpp.lt(r1, 100)
  b1 = pbr(@Loop)
  branch(p1, b1)
  halt
}
)");
  Liveness LV(*F);
  EXPECT_TRUE(LV.liveIn(F->block(0).getId()).count(Reg::gpr(1)));
}

TEST(PredicatedLivenessTest, LivenessUnderExitCondition) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r7 = mov(1)
  halt
block @X:
  r9 = add(r7, 1)
  store(r9, r9)
  halt
}
)");
  const Block &A = F->block(0);
  RegionPQS PQS(*F, A);
  Liveness LV(*F);
  PredicatedLiveness PLV(*F, A, PQS, LV);

  // Before the branch, r7 is live only under the taken condition (the
  // fall-through path kills it with an unguarded mov).
  BDD::NodeRef LiveR7 = PLV.liveBefore(2, Reg::gpr(7));
  BDD::NodeRef Taken = PQS.takenExpr(2);
  EXPECT_EQ(LiveR7, Taken);
  // After the kill point it is dead.
  EXPECT_EQ(PLV.liveAfter(3, Reg::gpr(7)), BDD::False);
}

TEST(PredicatedLivenessTest, PromotionQueryPattern) {
  // The exact query predicate speculation issues: dest live anywhere the
  // op would not have executed?
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  r5 = add(r1, 1) if p2
  r6 = add(r5, 1) if p2
  store(r6, r6) if p2
  halt
}
)");
  const Block &A = F->block(0);
  RegionPQS PQS(*F, A);
  Liveness LV(*F);
  PredicatedLiveness PLV(*F, A, PQS, LV);
  BDD &M = PQS.bdd();

  // r5 after op 1 is live only under p2 (read by op 2 guarded p2), which
  // is disjoint from !p2: promotion of op 1 is safe.
  BDD::NodeRef LiveR5 = PLV.liveAfter(1, Reg::gpr(5));
  BDD::NodeRef NotGuard = M.mkNot(PQS.guardExpr(1));
  EXPECT_TRUE(M.disjoint(LiveR5, NotGuard));
}

TEST(PredicatedLivenessTest, BranchTargetRegLiveOnlyWhenTaken) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  b1 = pbr(@X)
  p1:un = cmpp.eq(r1, 0)
  branch(p1, b1)
  halt
block @X:
  halt
}
)");
  const Block &A = F->block(0);
  RegionPQS PQS(*F, A);
  Liveness LV(*F);
  PredicatedLiveness PLV(*F, A, PQS, LV);
  // The BTR is live before the branch only under the taken condition.
  BDD::NodeRef LiveB = PLV.liveBefore(2, Reg::btr(1));
  EXPECT_EQ(LiveB, PQS.takenExpr(2));
}

//===----------------------------------------------------------------------===//
// PredicatedLiveness: parity with the per-operation snapshot version
//===----------------------------------------------------------------------===//

/// The PredicatedLiveness that copied the whole live state after every
/// operation, kept verbatim as the oracle for the parity test below.
class SnapshotPredicatedLiveness {
public:
  SnapshotPredicatedLiveness(const Function &F, const Block &B,
                             RegionPQS &PQS, const Liveness &L)
      : N(L.numbering()) {
    BDD &Mgr = PQS.bdd();
    const std::vector<Operation> &Ops = B.ops();
    LiveBeforeOp.resize(Ops.size() + 1);

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

      if (Op.isBranch()) {
        BDD::NodeRef Taken = PQS.takenExpr(I);
        for (Reg R : L.liveAtExit(B, I))
          OrInto(R, Taken);
      } else if (Op.getOpcode() == Opcode::Halt ||
                 Op.getOpcode() == Opcode::Trap) {
        for (Reg R : F.observableRegs())
          OrInto(R, G);
      }

      for (const DefSlot &D : Op.defs()) {
        BDD::NodeRef WriteCond = BDD::False;
        if (Op.isCmpp()) {
          switch (D.Act) {
          case CmppAction::UN:
          case CmppAction::UC:
            WriteCond = BDD::True;
            break;
          default:
            WriteCond = BDD::False;
            break;
          }
        } else {
          WriteCond = Op.isFrpGuard() ? BDD::True : G;
        }
        int DI = N.indexOf(D.R);
        if (WriteCond != BDD::False && DI >= 0) {
          BDD::NodeRef Old = Cur[static_cast<size_t>(DI)];
          BDD::NodeRef New = Mgr.mkAnd(Old, Mgr.mkNot(WriteCond));
          if (New == BDD::Invalid)
            New = Old;
          Set(static_cast<size_t>(DI), New);
        }
      }

      if (!Op.getGuard().isTruePred())
        OrInto(Op.getGuard(), BDD::True);
      if (Op.isBranch()) {
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

  BDD::NodeRef liveAfter(size_t OpIdx, Reg R) const {
    return get(OpIdx + 1, R);
  }
  BDD::NodeRef liveBefore(size_t OpIdx, Reg R) const { return get(OpIdx, R); }

private:
  struct LiveCond {
    uint32_t Idx;
    BDD::NodeRef Cond;
  };
  BDD::NodeRef get(size_t Point, Reg R) const {
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

  const RegNumbering &N;
  std::vector<std::vector<LiveCond>> LiveBeforeOp;
};

TEST(PredicatedLivenessParityTest, MatchesTheSnapshotVersionOnFRPConvertedPrograms) {
  // Every block FRP-converted, as the ICBM driver prepares a region; the
  // snapshot version runs first on the same manager, so equal conditions
  // are equal NodeRefs.
  size_t Queries = 0, LiveQueries = 0;
  for (unsigned MaxBlocks : {40u, 120u}) {
    GeneratorConfig Cfg;
    Cfg.MaxBlocks = MaxBlocks;
    Cfg.MaxLoopDepth = 3;
    Cfg.MaxItemsPerRegion = 8;
    Cfg.SyntheticFrac = 0.0;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      std::unique_ptr<Function> F =
          std::move(generateProgram(Seed * 7919, Cfg).Func);
      for (size_t L = 0; L < F->numBlocks(); ++L)
        convertToFRP(*F, F->block(L));
      Liveness LV(*F);
      const RegNumbering &N = LV.numbering();
      for (size_t L = 0; L < F->numBlocks(); ++L) {
        const Block &B = F->block(L);
        SCOPED_TRACE("MaxBlocks " + std::to_string(MaxBlocks) + " seed " +
                     std::to_string(Seed) + " block @" + B.getName());
        RegionPQS PQS(*F, B);
        SnapshotPredicatedLiveness Ref(*F, B, PQS, LV);
        PredicatedLiveness PLV(*F, B, PQS, LV);
        for (size_t OI = 0; OI < B.size(); ++OI)
          for (size_t I = 0; I < N.size(); ++I) {
            Reg R = N.regOf(I);
            BDD::NodeRef Before = PLV.liveBefore(OI, R);
            ASSERT_EQ(Before, Ref.liveBefore(OI, R))
                << "before op " << OI << ", " << R.str();
            ASSERT_EQ(PLV.liveAfter(OI, R), Ref.liveAfter(OI, R))
                << "after op " << OI << ", " << R.str();
            ++Queries;
            LiveQueries += Before != BDD::False;
          }
      }
    }
  }
  EXPECT_GT(Queries, 1000000u);
  EXPECT_GT(LiveQueries, 10000u);
}

//===----------------------------------------------------------------------===//
// LivenessCache: in-place updates
//===----------------------------------------------------------------------===//

/// The registers of \p S, sorted: a cache's views iterate in the order of
/// its grown numbering, a fresh solve's in first-appearance order.
std::vector<Reg> sortedRegs(LiveSet S) {
  std::vector<Reg> V(S.begin(), S.end());
  std::sort(V.begin(), V.end());
  return V;
}

/// Expects the cache's current solution to hold the registers of a fresh
/// solve in every live-in, live-out and exit set of \p F.
void expectFreshSets(LivenessCache &LC, const Function &F) {
  const Liveness &Cached = LC.get();
  Liveness Fresh(F);
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    const Block &B = F.block(L);
    ASSERT_EQ(sortedRegs(Cached.liveIn(B.getId())),
              sortedRegs(Fresh.liveIn(B.getId())))
        << "live-in of @" << B.getName();
    ASSERT_EQ(sortedRegs(Cached.liveOut(B.getId())),
              sortedRegs(Fresh.liveOut(B.getId())))
        << "live-out of @" << B.getName();
    for (size_t OI = 0; OI < B.size(); ++OI) {
      if (!B.ops()[OI].isControl())
        continue;
      ASSERT_EQ(sortedRegs(Cached.liveAtExit(B, OI)),
                sortedRegs(Fresh.liveAtExit(B, OI)))
          << "exit at op " << OI << " of @" << B.getName();
    }
  }
}

/// A two-block function whose ops can be edited to read other registers.
std::unique_ptr<Function> cacheFixture() {
  return parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  r9 = mov(0)
  r2 = mov(1)
block @B:
  r9 = add(r9, r2)
  halt
}
)");
}

TEST(LivenessCacheTest, SolvesOnFirstUseAndNotAgainWithoutAnEdit) {
  std::unique_ptr<Function> F = cacheFixture();
  LivenessCache LC(*F);
  EXPECT_EQ(LC.solves(), 0u) << "solves lazily";
  const Liveness *First = &LC.get();
  EXPECT_EQ(&LC.get(), First);
  // An edit report that changed nothing costs no solve either.
  LC.noteEdit(F->block(0));
  EXPECT_EQ(&LC.get(), First);
  EXPECT_EQ(LC.solves(), 1u);
  EXPECT_EQ(LC.partialSolves(), 0u);
}

TEST(LivenessCacheTest, GuardEditIsAPartialResolve) {
  std::unique_ptr<Function> F = cacheFixture();
  Block &A = F->block(0);
  LivenessCache LC(*F);
  LC.get();
  A.ops()[1].setGuard(Reg::pred(3));
  LC.noteEdit(A);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::pred(3)), 1u);
  // The guarded mov no longer kills r2, which is now live in as well.
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(2)), 1u);
  EXPECT_EQ(LC.solves(), 1u);
  EXPECT_EQ(LC.partialSolves(), 1u);
  expectFreshSets(LC, *F);

  // Flipping it back is partial again and restores the first solution.
  A.ops()[1].setGuard(Reg::truePred());
  LC.noteEdit(A);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::pred(3)), 0u);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(2)), 0u);
  EXPECT_EQ(LC.partialSolves(), 2u);
  expectFreshSets(LC, *F);
}

TEST(LivenessCacheTest, NewRegisterAndRemovedLastReadArePartial) {
  std::unique_ptr<Function> F = cacheFixture();
  Block &A = F->block(0);
  Block &B = F->block(1);
  LivenessCache LC(*F);
  size_t Numbered = LC.get().numbering().size();

  // A register the function never mentioned gets a new bit.
  A.ops()[0].srcs()[0] = Operand::reg(Reg::gpr(40));
  LC.noteEdit(A);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(40)), 1u);
  EXPECT_EQ(LC.get().numbering().size(), Numbered + 1);
  expectFreshSets(LC, *F);

  // r2's last read goes: it stays numbered but is live nowhere.
  B.ops()[0].srcs()[1] = Operand::imm(5);
  LC.noteEdit(B);
  EXPECT_EQ(LC.get().liveOut(A.getId()).count(Reg::gpr(2)), 0u);
  EXPECT_GE(LC.get().numbering().indexOf(Reg::gpr(2)), 0);
  EXPECT_EQ(LC.solves(), 1u);
  EXPECT_EQ(LC.partialSolves(), 2u);
  expectFreshSets(LC, *F);
}

TEST(LivenessCacheTest, ExitTargetChangeIsAFullResolve) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  p1:un = cmpp.lt(r1, 5)
  b1 = pbr(@X)
  branch(p1, b1)
block @Y:
  r9 = add(r8, 1)
  halt
block @X:
  r9 = add(r7, 1)
  halt
}
)");
  Block &A = F->block(0);
  LivenessCache LC(*F);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(7)), 1u);
  // Retarget the branch at @Y: @A's exit targets change.
  A.ops()[1].srcs()[0] = Operand::label(F->block(1).getId());
  LC.noteEdit(A);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(7)), 0u);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(8)), 1u);
  EXPECT_EQ(LC.solves(), 2u);
  EXPECT_EQ(LC.partialSolves(), 0u);
  expectFreshSets(LC, *F);
}

TEST(LivenessCacheTest, AppendedBlockRecompilesTheBlockFallingIntoIt) {
  // @B falls off the end of the function (its live-out is the observable
  // set) until a block is appended after it.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  r9 = mov(0)
block @B:
  r9 = add(r9, r2)
}
)");
  LivenessCache LC(*F);
  EXPECT_EQ(LC.get().liveOut(F->block(1).getId()).count(Reg::gpr(9)), 1u);
  Block &C = F->addBlock("C");
  Operation Op = F->makeOp(Opcode::Mov);
  Op.addDef(Reg::gpr(9));
  Op.addSrc(Operand::reg(Reg::gpr(5)));
  C.ops().push_back(std::move(Op));
  C.ops().push_back(F->makeOp(Opcode::Halt));
  LC.noteEdit(C);
  const Liveness &LV = LC.get();
  EXPECT_EQ(LV.liveOut(F->block(1).getId()).count(Reg::gpr(5)), 1u);
  EXPECT_EQ(LV.liveOut(F->block(1).getId()).count(Reg::gpr(9)), 0u);
  EXPECT_EQ(LC.solves(), 2u);
  expectFreshSets(LC, *F);
}

TEST(LivenessCacheTest, RemovedBlockIsAFullResolve) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  r9 = mov(0)
block @B:
  r9 = add(r9, r3)
block @C:
  r9 = add(r9, r4)
  halt
}
)");
  BlockId Removed = F->block(1).getId();
  LivenessCache LC(*F);
  EXPECT_EQ(LC.get().liveOut(F->block(0).getId()).count(Reg::gpr(3)), 1u);
  ASSERT_TRUE(F->removeBlock(Removed));
  // No report: the cache sees the layout change itself.
  const Liveness &LV = LC.get();
  EXPECT_TRUE(LV.liveIn(Removed).empty());
  EXPECT_EQ(LV.liveOut(F->block(0).getId()).count(Reg::gpr(3)), 0u);
  EXPECT_EQ(LV.liveOut(F->block(0).getId()).count(Reg::gpr(4)), 1u);
  EXPECT_EQ(LC.solves(), 2u);
  expectFreshSets(LC, *F);
}

TEST(LivenessCacheTest, ResolvesFromEmptyWhenALoopLosesItsOnlyRead) {
  // r3 is live around @L's back edge only because @L reads it. Once the
  // read goes, r3 is dead everywhere -- but the old solution is still a
  // fixed point of the new equations (r3 in @L's live-in keeps it in @L's
  // live-out through the back edge), so only a restart from the empty
  // set finds the least one.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  r9 = mov(0)
  r3 = mov(7)
block @L:
  r9 = add(r9, r3)
  p1:un = cmpp.lt(r9, 100)
  b1 = pbr(@L)
  branch(p1, b1)
block @X:
  halt
}
)");
  Block &Loop = F->block(1);
  LivenessCache LC(*F);
  EXPECT_EQ(LC.get().liveIn(Loop.getId()).count(Reg::gpr(3)), 1u);
  EXPECT_EQ(LC.get().liveOut(Loop.getId()).count(Reg::gpr(3)), 1u);
  Loop.ops()[0].srcs()[1] = Operand::imm(1);
  LC.noteEdit(Loop);
  const Liveness &LV = LC.get();
  EXPECT_EQ(LC.partialSolves(), 1u);
  EXPECT_EQ(LV.liveIn(Loop.getId()).count(Reg::gpr(3)), 0u);
  EXPECT_EQ(LV.liveOut(Loop.getId()).count(Reg::gpr(3)), 0u);
  EXPECT_EQ(LV.liveOut(F->block(0).getId()).count(Reg::gpr(3)), 0u);
  expectFreshSets(LC, *F);
}

TEST(LivenessCacheTest, SureWriteMovedBehindAnExitIsResolved) {
  // Guarding the first write of r5 leaves the second as its first sure
  // write, now behind the branch to @X, which reads r5: r5 becomes live
  // into @A although its first mention is a write before and after.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  r5 = mov(1)
  p1:un = cmpp.lt(r1, 5)
  b1 = pbr(@X)
  branch(p1, b1)
  r5 = mov(2)
  r9 = add(r5, 0)
  halt
block @X:
  r9 = add(r5, 1)
  halt
}
)");
  Block &A = F->block(0);
  LivenessCache LC(*F);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(5)), 0u);
  A.ops()[0].setGuard(Reg::pred(3));
  LC.noteEdit(A);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(5)), 1u);
  EXPECT_EQ(LC.partialSolves(), 1u);
  expectFreshSets(LC, *F);
}

TEST(LivenessCacheTest, ObservableRegisterReadNowhereIsResolved) {
  // Nothing reads r9, but it is observable, so it is live into @A through
  // the branch to @H's halt until a write ahead of that branch kills it.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  p1:un = cmpp.lt(r1, 5)
  b1 = pbr(@H)
  branch(p1, b1)
  r9 = mov(2)
  halt
block @H:
  halt
}
)");
  Block &A = F->block(0);
  LivenessCache LC(*F);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(9)), 1u);
  Operation Op = F->makeOp(Opcode::Mov);
  Op.addDef(Reg::gpr(9));
  Op.addSrc(Operand::imm(1));
  A.ops().insert(A.ops().begin(), std::move(Op));
  LC.noteEdit(A);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(9)), 0u);
  EXPECT_EQ(LC.partialSolves(), 1u);
  expectFreshSets(LC, *F);
}

TEST(LivenessCacheTest, ExitsSwappedAroundAWriteAreResolved) {
  // r5's first mention is a write behind one exit before and after, but
  // the exit ahead of it changes from @X, which reads r5, to @Y.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  p1:un = cmpp.lt(r1, 5)
  b1 = pbr(@X)
  branch(p1, b1)
  r5 = mov(3)
  p2:un = cmpp.lt(r2, 5)
  b2 = pbr(@Y)
  branch(p2, b2)
  r9 = add(r5, 0)
  halt
block @X:
  r9 = add(r5, 1)
  halt
block @Y:
  r9 = mov(0)
  halt
}
)");
  Block &A = F->block(0);
  LivenessCache LC(*F);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(5)), 1u);
  std::swap_ranges(A.ops().begin(), A.ops().begin() + 3,
                   A.ops().begin() + 4);
  LC.noteEdit(A);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(5)), 0u);
  EXPECT_EQ(LC.solves(), 1u);
  EXPECT_EQ(LC.partialSolves(), 1u);
  expectFreshSets(LC, *F);
}

/// One random edit of \p F, reported to \p LC: flip a guard, delete,
/// insert or swap operations, append a block, or remove one.
void randomEdit(Function &F, LivenessCache &LC, RNG &Rng,
                std::vector<Reg> &Pool) {
  auto PickReg = [&]() { return Pool[Rng.nextBelow(Pool.size())]; };
  Block &B = F.block(Rng.nextBelow(F.numBlocks()));
  switch (Rng.nextBelow(12)) {
  case 0:
  case 1:
  case 2: { // flip a guard
    if (B.empty())
      return;
    Operation &Op = B.ops()[Rng.nextBelow(B.size())];
    Reg P = PickReg();
    Op.setGuard(Op.getGuard().isTruePred() && P.isPred() ? P
                                                           : Reg::truePred());
    LC.noteEdit(B);
    return;
  }
  case 3:
  case 4: // delete an operation (a branch or pbr among them)
    if (B.empty())
      return;
    B.ops().erase(B.ops().begin() +
                  static_cast<ptrdiff_t>(Rng.nextBelow(B.size())));
    LC.noteEdit(B);
    return;
  case 5:
  case 6:
  case 7: { // insert an operation, sometimes naming a new register
    Operation Op = F.makeOp(Opcode::Add);
    Reg D = Rng.nextBelow(4) == 0 ? F.newReg(RegClass::GPR) : PickReg();
    if (D.isPred() || D.getClass() == RegClass::BTR)
      D = F.newReg(RegClass::GPR);
    Pool.push_back(D);
    Op.addDef(D);
    Reg S = PickReg();
    Op.addSrc(S.isPred() || S.getClass() == RegClass::BTR
                  ? Operand::imm(1)
                  : Operand::reg(S));
    Op.addSrc(Operand::imm(3));
    Reg G = PickReg();
    if (G.isPred() && Rng.nextBelow(2))
      Op.setGuard(G);
    B.ops().insert(B.ops().begin() +
                       static_cast<ptrdiff_t>(Rng.nextBelow(B.size() + 1)),
                   std::move(Op));
    LC.noteEdit(B);
    return;
  }
  case 8: { // append a block
    Block &New = F.addBlock("appended" + std::to_string(F.numBlocks()));
    Operation Op = F.makeOp(Opcode::Mov);
    Op.addDef(F.newReg(RegClass::GPR));
    Reg S = PickReg();
    Op.addSrc(S.isPred() || S.getClass() == RegClass::BTR
                  ? Operand::imm(1)
                  : Operand::reg(S));
    New.ops().push_back(std::move(Op));
    if (Rng.nextBelow(2))
      New.ops().push_back(F.makeOp(Opcode::Halt));
    LC.noteEdit(New);
    return;
  }
  case 9:
  case 10: { // swap two adjacent operations
    if (B.size() < 2)
      return;
    size_t I = Rng.nextBelow(B.size() - 1);
    std::swap(B.ops()[I], B.ops()[I + 1]);
    LC.noteEdit(B);
    return;
  }
  default: // remove a block; branches to it now leave the function
    if (F.numBlocks() > 2)
      F.removeBlock(B.getId());
    return;
  }
}

TEST(LivenessCacheTest, MatchesAFreshSolveAfterEveryRandomEdit) {
  unsigned Edits = 0;
  unsigned Partial = 0, Full = 0;
  for (unsigned MaxBlocks : {40u, 120u, 240u}) {
    GeneratorConfig Cfg;
    Cfg.MaxBlocks = MaxBlocks;
    Cfg.MaxLoopDepth = 3;
    Cfg.MaxItemsPerRegion = 8;
    Cfg.SyntheticFrac = 0.0;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      std::unique_ptr<Function> F =
          std::move(generateProgram(Seed * 7919, Cfg).Func);
      RNG Rng(Seed * 104729 + MaxBlocks);
      LivenessCache LC(*F);
      std::vector<Reg> Pool;
      {
        const RegNumbering &N = LC.get().numbering();
        for (size_t I = 0; I < N.size(); ++I)
          Pool.push_back(N.regOf(I));
      }
      for (unsigned E = 0; E < 40; ++E) {
        SCOPED_TRACE("MaxBlocks " + std::to_string(MaxBlocks) + " seed " +
                     std::to_string(Seed) + " edit " + std::to_string(E));
        randomEdit(*F, LC, Rng, Pool);
        expectFreshSets(LC, *F);
        if (HasFatalFailure())
          return;
        ++Edits;
      }
      Partial += LC.partialSolves();
      Full += LC.solves();
    }
  }
  EXPECT_EQ(Edits, 600u);
  EXPECT_GT(Partial, 200u);
  EXPECT_GT(Full, 100u);
}

} // namespace
