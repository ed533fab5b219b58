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
// LivenessCache: the report protocol
//===----------------------------------------------------------------------===//

/// A two-block function whose first op can be edited to read r1.
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

TEST(LivenessCacheTest, RestoreHandsBackTheCommittedSolutionWithoutASolve) {
  std::unique_ptr<Function> F = cacheFixture();
  Block &A = F->block(0);
  LivenessCache LC(*F);
  const Liveness *Committed = &LC.get();
  EXPECT_EQ(LC.solves(), 1u);
  EXPECT_EQ(&LC.get(), Committed);
  EXPECT_EQ(LC.solves(), 1u);

  std::vector<Operation> Snapshot = A.ops();
  A.ops()[0].srcs()[0] = Operand::reg(Reg::gpr(1));
  LC.noteEdit();
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(1)), 1u);
  EXPECT_EQ(LC.solves(), 2u);

  A.ops() = std::move(Snapshot);
  LC.noteRestore();
  EXPECT_EQ(&LC.get(), Committed);
  EXPECT_EQ(LC.solves(), 2u);
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(1)), 0u);
}

TEST(LivenessCacheTest, EachReportThatDropsTheSolutionCostsOneSolve) {
  std::unique_ptr<Function> F = cacheFixture();
  Block &A = F->block(0);
  LivenessCache LC(*F);
  EXPECT_EQ(LC.solves(), 0u) << "solves lazily";

  // An edit: exactly one solve on the next get(), none on later ones.
  A.ops()[0].srcs()[0] = Operand::reg(Reg::gpr(1));
  LC.noteEdit();
  const Liveness *Edited = &LC.get();
  EXPECT_EQ(LC.solves(), 1u);
  EXPECT_EQ(&LC.get(), Edited);
  EXPECT_EQ(LC.solves(), 1u);

  // A second edit drops the tentative solution again.
  A.ops()[1].srcs()[0] = Operand::reg(Reg::gpr(3));
  LC.noteEdit();
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(3)), 1u);
  EXPECT_EQ(LC.solves(), 2u);

  // A commit keeps the edits: the next get() solves the function as it
  // is now, once.
  LC.noteCommit();
  EXPECT_EQ(LC.get().liveIn(A.getId()).count(Reg::gpr(3)), 1u);
  LC.get();
  EXPECT_EQ(LC.solves(), 3u);
}

} // namespace
