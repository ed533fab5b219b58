//===- tests/regions/SimplifyTest.cpp - Scalar optimization tests ---------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "regions/Simplify.h"

#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "regions/DeadCodeElim.h"
#include "regions/LoopUnroller.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <limits>

using namespace cpr;

namespace {

TEST(SimplifyTest, FoldsConstants) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r3
block @A:
  r1 = mov(6)
  r2 = mul(r1, 7)
  r3 = add(r2, 0)
  halt
}
)");
  SimplifyStats S = simplifyBlock(*F, F->block(0));
  EXPECT_GE(S.ConstantsFolded, 2u);
  verifyOrDie(*F, "after simplify");
  Memory Mem;
  RunResult R = interpret(*F, Mem, {});
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.Observed[0], 42);
  // The final op should have become a constant mov.
  const Operation &Last = F->block(0).ops()[2];
  EXPECT_EQ(Last.getOpcode(), Opcode::Mov);
  EXPECT_EQ(Last.srcs()[0].getImm(), 42);
}

TEST(SimplifyTest, FoldsMinDividedByMinusOne) {
  // The fold shares the interpreter's arithmetic: INT64_MIN / -1 wraps to
  // INT64_MIN and INT64_MIN % -1 is 0, instead of trapping the compiler.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r3, r4
block @A:
  r2 = shl(1, 63)
  r3 = div(r2, -1)
  r4 = rem(r2, -1)
  halt
}
)");
  Memory Before;
  RunResult Want = interpret(*F, Before, {});
  SimplifyStats S = simplifyBlock(*F, F->block(0));
  EXPECT_GE(S.ConstantsFolded, 3u);
  verifyOrDie(*F, "after simplify");
  const int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(F->block(0).ops()[1].srcs()[0].getImm(), Min);
  EXPECT_EQ(F->block(0).ops()[2].srcs()[0].getImm(), 0);
  Memory After;
  RunResult Got = interpret(*F, After, {});
  ASSERT_TRUE(Got.halted());
  EXPECT_EQ(Got.Observed, Want.Observed);
  EXPECT_EQ(Got.Observed, (std::vector<int64_t>{Min, 0}));
}

TEST(SimplifyTest, PropagatesCopies) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r4
block @A:
  r2 = mov(r1)
  r3 = mov(r2)
  r4 = add(r3, r2)
  halt
}
)");
  SimplifyStats S = simplifyBlock(*F, F->block(0));
  EXPECT_GE(S.CopiesPropagated, 2u);
  const Operation &Add = F->block(0).ops()[2];
  EXPECT_EQ(Add.srcs()[0].getReg(), Reg::gpr(1));
  EXPECT_EQ(Add.srcs()[1].getReg(), Reg::gpr(1));
}

TEST(SimplifyTest, CopyInvalidatedByRedefinition) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r3
block @A:
  r2 = mov(r1)
  r1 = mov(9)
  r3 = add(r2, 1)
  halt
}
)");
  simplifyBlock(*F, F->block(0));
  // r2's copy-of-r1 fact is stale after r1 is redefined: the add must
  // still read r2.
  const Operation &Add = F->block(0).ops()[2];
  EXPECT_EQ(Add.srcs()[0].getReg(), Reg::gpr(2));
  Memory Mem;
  RunResult R = interpret(*F, Mem, {{Reg::gpr(1), 5}});
  EXPECT_EQ(R.Observed[0], 6);
}

TEST(SimplifyTest, CseReusesExpressions) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r4
block @A:
  r2 = add(r1, 8)
  r3 = add(r1, 8)
  r4 = xor(r2, r3)
  halt
}
)");
  SimplifyStats S = simplifyBlock(*F, F->block(0));
  EXPECT_EQ(S.ExpressionsReused, 1u);
  Memory Mem;
  RunResult R = interpret(*F, Mem, {{Reg::gpr(1), 3}});
  EXPECT_EQ(R.Observed[0], 0);
}

TEST(SimplifyTest, CseRespectsRedefinitions) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r4
block @A:
  r2 = add(r1, 8)
  r1 = add(r1, 1)
  r3 = add(r1, 8)
  r4 = sub(r3, r2)
  halt
}
)");
  SimplifyStats S = simplifyBlock(*F, F->block(0));
  EXPECT_EQ(S.ExpressionsReused, 0u);
  Memory Mem;
  RunResult R = interpret(*F, Mem, {{Reg::gpr(1), 3}});
  EXPECT_EQ(R.Observed[0], 1);
}

TEST(SimplifyTest, GuardedDefsBlockFacts) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r3
block @A:
  r2 = mov(1)
  r2 = mov(9) if p1
  r3 = add(r2, 0)
  halt
}
)");
  simplifyBlock(*F, F->block(0));
  // r2 is not a known constant after the guarded mov.
  const Operation &Add = F->block(0).ops()[2];
  ASSERT_TRUE(Add.srcs()[0].isReg());
  for (int64_t P1 : {0, 1}) {
    std::unique_ptr<Function> G = parseFunctionOrDie(R"(
func @f {
  observable r3
block @A:
  r2 = mov(1)
  r2 = mov(9) if p1
  r3 = add(r2, 0)
  halt
}
)");
    simplifyBlock(*G, G->block(0));
    Memory Mem;
    RunResult R = interpret(*G, Mem, {{Reg::pred(1), P1}});
    EXPECT_EQ(R.Observed[0], P1 ? 9 : 1);
  }
}

TEST(SimplifyTest, CleansUnrolledOffsetArithmetic) {
  // The integration the pass exists for: unroll, simplify, DCE -- the
  // program still behaves identically and shrinks.
  const char *Src = R"(
func @sum {
  observable r5
block @Entry:
  r5 = mov(0)
block @Loop:
  r10 = load.m1(r1)
  p1:un = cmpp.eq(r10, 0)
  b1 = pbr(@Exit)
  branch(p1, b1)
  r5 = add(r5, r10)
  r1 = add(r1, 1)
  r2 = sub(r2, 1)
  p2:un = cmpp.gt(r2, 0)
  b2 = pbr(@Loop)
  branch(p2, b2)
block @Exit:
  halt
}
)";
  std::unique_ptr<Function> Base = parseFunctionOrDie(Src);
  std::unique_ptr<Function> Opt = parseFunctionOrDie(Src);
  ASSERT_TRUE(unrollLoop(*Opt, *Opt->blockByName("Loop"), 4).Unrolled);
  simplifyFunction(*Opt);
  eliminateDeadCode(*Opt);
  verifyOrDie(*Opt, "after unroll+simplify+dce");

  Memory Mem;
  for (int I = 0; I < 64; ++I)
    Mem.store(1000 + I, 1 + (I * 7) % 90);
  Mem.store(1000 + 64, 0);
  EquivResult E = checkEquivalence(
      *Base, *Opt, Mem, {{Reg::gpr(1), 1000}, {Reg::gpr(2), 40}});
  EXPECT_TRUE(E.Equivalent) << E.Detail;
}

TEST(SimplifyTest, PreservesKernelBehavior) {
  KernelProgram P = buildWcKernel(4, 1024, 21);
  std::unique_ptr<Function> Base = P.Func->clone();
  simplifyFunction(*P.Func);
  eliminateDeadCode(*P.Func);
  EquivResult E = checkEquivalence(*Base, *P.Func, P.InitMem, P.InitRegs);
  EXPECT_TRUE(E.Equivalent) << E.Detail;
}

} // namespace
