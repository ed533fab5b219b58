//===- tests/cpr/SpeculationTest.cpp - Predicate speculation tests --------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "cpr/PredicateSpeculation.h"

#include "analysis/Liveness.h"
#include "interp/Profiler.h"
#include "ir/IRParser.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace cpr;

namespace {

TEST(SpeculationTest, PromotesDeadDestinationChains) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r5 = add(r9, 1) if p2 frp
  r6 = load.m1(r5) if p2 frp
  p3:un = cmpp.eq(r6, 0) if p2 frp
  b2 = pbr(@X)
  branch(p3, b2)
  halt
block @X:
  halt
}
)");
  Block &A = F->block(0);
  SpeculationStats S = speculatePredicates(*F, A);
  EXPECT_GE(S.Promoted, 2u);
  // The address add and the load feed the next compare: promoted to T.
  EXPECT_TRUE(A.ops()[3].getGuard().isTruePred()); // add
  EXPECT_TRUE(A.ops()[4].getGuard().isTruePred()); // load
}

TEST(SpeculationTest, NeverPromotesStoresOrCompares) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  store(r9, 7) if p2 frp
  p3:un = cmpp.eq(r2, 0) if p2 frp
  halt
block @X:
  halt
}
)");
  Block &A = F->block(0);
  speculatePredicates(*F, A);
  EXPECT_FALSE(A.ops()[3].getGuard().isTruePred()); // store keeps guard
  EXPECT_FALSE(A.ops()[4].getGuard().isTruePred()); // cmpp keeps guard
}

TEST(SpeculationTest, RejectsPromotionWhenDestLiveAtExit) {
  // r5 is read at the branch target: promoting the guarded definition
  // would clobber the value the exit path observes once ICBM removes the
  // branch from above it.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r5 = add(r5, 1) if p2 frp
  p3:un = cmpp.eq(r5, 9) if p2 frp
  b2 = pbr(@X)
  branch(p3, b2)
  halt
block @X:
  store(r5, r5)
  halt
}
)");
  Block &A = F->block(0);
  speculatePredicates(*F, A);
  EXPECT_FALSE(A.ops()[3].getGuard().isTruePred())
      << "r5 is live at @X; promotion must be rejected";
}

TEST(SpeculationTest, RejectsPromotionOfIfConvertedUpdate) {
  // A counter update guarded by a *taken* predicate: its destination is
  // live on the fall-through path, so promotion would overwrite it.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r5
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  r5 = add(r5, 1) if p1
  b1 = pbr(@X)
  branch(p1, b1)
  halt
block @X:
  halt
}
)");
  Block &A = F->block(0);
  speculatePredicates(*F, A);
  EXPECT_FALSE(A.ops()[1].getGuard().isTruePred());
}

TEST(SpeculationTest, DemotionRestoresUselessPromotion) {
  // The paper's demotion example: a value chained behind its own guard's
  // compare gains nothing from promotion (depth already reaches past the
  // guard availability) and is demoted back -- provided it does not feed
  // a later branch-controlling compare.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  r6 = load.m1(r1)
  p1:un, p2:uc = cmpp.eq(r6, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r7 = mul(r6, r6) if p2 frp
  r8 = mul(r7, r7) if p2 frp
  store.m2(r9, r8) if p2 frp
  halt
block @X:
  halt
}
)");
  Block &A = F->block(0);
  SpeculationStats S = speculatePredicates(*F, A);
  // The second multiply sits deep enough that its guard is free; demotion
  // restores it.
  EXPECT_GE(S.Demoted, 1u);
  EXPECT_FALSE(A.ops()[5].getGuard().isTruePred());
}

TEST(SpeculationTest, SpeculationPreservesBehavior) {
  const char *Src = R"(
func @f {
  observable r5
block @A:
  r5 = mov(0)
  r6 = load.m1(r1)
  p1:un, p2:uc = cmpp.eq(r6, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r7 = add(r6, 3) if p2 frp
  r8 = load.m1(r7) if p2 frp
  p3:un, p4:uc = cmpp.eq(r8, 0) if p2 frp
  b2 = pbr(@X)
  branch(p3, b2)
  r5 = add(r7, r8) if p4 frp
  halt
block @X:
  r5 = mov(99)
  halt
}
)";
  for (int64_t V1 : {0, 5})
    for (int64_t V2 : {0, 7}) {
      std::unique_ptr<Function> Base = parseFunctionOrDie(Src);
      std::unique_ptr<Function> Spec = parseFunctionOrDie(Src);
      speculatePredicates(*Spec, Spec->block(0));
      Memory Mem;
      Mem.store(1000, V1);
      Mem.store(1000 + V1 + 3, V2);
      EquivResult E = checkEquivalence(*Base, *Spec, Mem,
                                       {{Reg::gpr(1), 1000}});
      EXPECT_TRUE(E.Equivalent) << V1 << "," << V2 << ": " << E.Detail;
    }
}

TEST(SpeculationTest, ReportsEachGuardEditToTheLivenessCache) {
  // Each pass's guard edits change the function's live-in set, so each
  // must report them for the cache to hand the next phase the right
  // solution. In @f promotion removes the only read of p7 (live-in from
  // outside, so demotion keeps it); in @g promotion removes the only read
  // of p2 and demotion restores it (its non-killing definition leaves p2
  // live-in).
  struct Case {
    const char *Src;
    unsigned Promoted, Demoted, Solves;
  };
  for (const Case &C : {Case{R"(
func @f {
block @A:
  r5 = add(r9, 1) if p7
  halt
}
)",
                             1, 0, 2},
                        Case{R"(
func @g {
block @A:
  r6 = load.m1(r1)
  p2 = mov(1) if p9
  r7 = mul(r6, r6)
  r8 = mul(r7, r7) if p2
  halt
}
)",
                             1, 1, 3}}) {
    std::unique_ptr<Function> F = parseFunctionOrDie(C.Src);
    SCOPED_TRACE(F->getName());
    Block &A = F->block(0);
    LivenessCache LC(*F);
    LC.get();
    SpeculationStats S = speculatePredicates(*F, A, &LC);
    EXPECT_EQ(S.Promoted, C.Promoted);
    EXPECT_EQ(S.Demoted, C.Demoted);
    // Sets, not orders: the cache's grown numbering iterates otherwise.
    Liveness Fresh(*F);
    LiveSet Cached = LC.get().liveIn(A.getId());
    std::vector<Reg> After(Cached.begin(), Cached.end());
    std::vector<Reg> Expected(Fresh.liveIn(A.getId()).begin(),
                              Fresh.liveIn(A.getId()).end());
    std::sort(After.begin(), After.end());
    std::sort(Expected.begin(), Expected.end());
    EXPECT_EQ(After, Expected);
    EXPECT_EQ(LC.solves(), 1u);
    EXPECT_EQ(LC.partialSolves(), C.Solves - 1)
        << "one partial re-solve per reported pass";
  }
}

} // namespace
