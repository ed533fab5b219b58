//===- tests/interp/FloatOpsTest.cpp - Floating-point path tests ----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "analysis/AnalysisCache.h"
#include "ir/IRParser.h"
#include "sched/ListScheduler.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

TEST(FloatOpsTest, ArithmeticSemantics) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  f1 = fadd(f9, f9)
  f2 = fmul(f1, f9)
  f3 = fsub(f2, f1)
  f4 = fdiv(f3, f9)
  store(r1, f4)
  halt
}
)");
  Memory Mem;
  RunResult R = interpret(*F, Mem,
                          {{Reg::fpr(9), 3}, {Reg::gpr(1), 100}});
  ASSERT_TRUE(R.halted());
  // f1=6, f2=18, f3=12, f4=4 -> stored as integer image 4.
  EXPECT_EQ(Mem.load(100), 4);
}

TEST(FloatOpsTest, DivisionByZeroReadsZero) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  f2 = fdiv(f1, f3)
  store(r1, f2)
  halt
}
)");
  Memory Mem;
  RunResult R = interpret(*F, Mem,
                          {{Reg::fpr(1), 7}, {Reg::gpr(1), 50}});
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(Mem.load(50), 0);
}

TEST(FloatOpsTest, PredicatedFloatOps) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  f1 = mov(10)
  p1:un, p2:uc = cmpp.lt(r9, 5)
  f1 = fadd(f1, f1) if p1
  f1 = fsub(f1, f1) if p2
  store(r1, f1)
  halt
}
)");
  {
    Memory Mem;
    RunResult R = interpret(*F, Mem, {{Reg::gpr(9), 3}, {Reg::gpr(1), 10}});
    ASSERT_TRUE(R.halted());
    EXPECT_EQ(Mem.load(10), 20); // p1 path
  }
  {
    Memory Mem;
    RunResult R = interpret(*F, Mem, {{Reg::gpr(9), 8}, {Reg::gpr(1), 10}});
    ASSERT_TRUE(R.halted());
    EXPECT_EQ(Mem.load(10), 0); // p2 path
  }
}

TEST(FloatOpsTest, FloatLatenciesAndUnitsInSchedules) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  f1 = fadd(f9, f9)
  f2 = fadd(f1, f9)
  f3 = fadd(f8, f8)
  f4 = fadd(f7, f7)
  halt
}
)");
  // Narrow machine: one float unit, fadd latency 3; the dependent chain
  // costs 3 + 3 and the independent adds fill other cycles.
  MachineDesc Narrow = MachineDesc::narrow();
  FunctionAnalyses FA(*F, &Narrow);
  Schedule S = scheduleBlock(F->block(0), *FA.graphs()->graph(0), Narrow);
  EXPECT_EQ(S.cycleOf(1) - S.cycleOf(0), 3);
  EXPECT_NE(S.cycleOf(2), S.cycleOf(3)) << "single F unit serializes";
}

} // namespace
