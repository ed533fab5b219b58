//===- tests/interp/InterpreterTest.cpp - Interpreter semantics -----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/Profiler.h"
#include "ir/IRParser.h"

#include <gtest/gtest.h>

#include <limits>

using namespace cpr;

namespace {

RunResult run(const std::string &Src, Memory &Mem,
              std::vector<RegBinding> Init = {},
              const InterpOptions &Opts = InterpOptions()) {
  std::unique_ptr<Function> F = parseFunctionOrDie(Src);
  return interpret(*F, Mem, Init, Opts);
}

TEST(InterpreterTest, ArithmeticAndObservables) {
  Memory Mem;
  RunResult R = run(R"(
func @f {
  observable r1, r2, r3, r4
block @A:
  r1 = add(6, 7)
  r2 = mul(r1, 3)
  r3 = shr(r2, 1)
  r4 = rem(r2, 4)
  halt
}
)",
                    Mem);
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.Observed, (std::vector<int64_t>{13, 39, 19, 3}));
}

TEST(InterpreterTest, DivisionByZeroReadsZero) {
  Memory Mem;
  RunResult R = run(R"(
func @f {
  observable r1, r2
block @A:
  r1 = div(10, 0)
  r2 = rem(10, 0)
  halt
}
)",
                    Mem);
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.Observed, (std::vector<int64_t>{0, 0}));
}

TEST(InterpreterTest, MinDividedByMinusOneWraps) {
  // INT64_MIN / -1 overflows; it wraps to INT64_MIN, as add/sub/mul wrap,
  // and its remainder is 0, instead of trapping the host.
  Memory Mem;
  RunResult R = run(R"(
func @f {
  observable r3, r4, r5, r6
block @A:
  r2 = shl(1, 63)
  r3 = div(r2, r1)
  r4 = rem(r2, r1)
  r5 = div(r2, -1)
  r6 = div(7, r1)
  halt
}
)",
                    Mem, {{Reg::gpr(1), -1}});
  ASSERT_TRUE(R.halted());
  const int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(R.Observed, (std::vector<int64_t>{Min, 0, Min, -7}));
}

TEST(InterpreterTest, PredicationNullifies) {
  Memory Mem;
  RunResult R = run(R"(
func @f {
  observable r1, r2
block @A:
  r1 = mov(1)
  r2 = mov(1)
  p1:un, p2:uc = cmpp.lt(5, 3)
  r1 = mov(99) if p1
  r2 = mov(99) if p2
  halt
}
)",
                    Mem);
  ASSERT_TRUE(R.halted());
  // 5 < 3 is false: p1 false (nullified), p2 true (executes).
  EXPECT_EQ(R.Observed, (std::vector<int64_t>{1, 99}));
}

TEST(InterpreterTest, CmppWritesUnconditionalTargetsUnderFalseGuard) {
  Memory Mem;
  RunResult R = run(R"(
func @f {
  observable r1
block @A:
  p3 = mov(0)
  p1 = mov(1)
  p1:un = cmpp.lt(1, 2) if p3
  r1 = mov(0)
  r1 = mov(77) if p1
  halt
}
)",
                    Mem);
  ASSERT_TRUE(R.halted());
  // The UN target is written 0 even though the guard p3 is false, so the
  // final mov is nullified.
  EXPECT_EQ(R.Observed, (std::vector<int64_t>{0}));
}

TEST(InterpreterTest, BranchTakenAndFallThrough) {
  Memory Mem;
  RunResult R = run(R"(
func @f {
  observable r1
block @A:
  p1:un = cmpp.eq(r9, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r1 = mov(111)
  halt
block @X:
  r1 = mov(222)
  halt
}
)",
                    Mem, {{Reg::gpr(9), 0}});
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.Observed[0], 222);
  EXPECT_EQ(R.Stats.BranchesTaken, 1u);

  Memory Mem2;
  RunResult R2 = run(R"(
func @f {
  observable r1
block @A:
  p1:un = cmpp.eq(r9, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r1 = mov(111)
  halt
block @X:
  r1 = mov(222)
  halt
}
)",
                     Mem2, {{Reg::gpr(9), 5}});
  EXPECT_EQ(R2.Observed[0], 111);
  EXPECT_EQ(R2.Stats.BranchesTaken, 0u);
}

TEST(InterpreterTest, LoopWithCounter) {
  Memory Mem;
  RunResult R = run(R"(
func @f {
  observable r2
block @Entry:
  r1 = mov(10)
  r2 = mov(0)
block @Loop:
  r2 = add(r2, r1)
  r1 = sub(r1, 1)
  p1:un = cmpp.gt(r1, 0)
  b1 = pbr(@Loop)
  branch(p1, b1)
  halt
}
)",
                    Mem);
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.Observed[0], 55); // 10 + 9 + ... + 1
}

TEST(InterpreterTest, MemoryRoundTrip) {
  Memory Mem;
  Mem.store(1000, 42);
  RunResult R = run(R"(
func @f {
  observable r2
block @A:
  r1 = mov(1000)
  r2 = load(r1)
  r3 = add(r1, 1)
  store(r3, r2)
  halt
}
)",
                    Mem);
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.Observed[0], 42);
  EXPECT_EQ(Mem.load(1001), 42);
}

TEST(InterpreterTest, TrapReports) {
  Memory Mem;
  RunResult R = run(R"(
func @f {
block @A:
  trap
}
)",
                    Mem);
  EXPECT_EQ(R.St, RunResult::Status::Trapped);
}

TEST(InterpreterTest, FallOffEndIsError) {
  Memory Mem;
  RunResult R = run(R"(
func @f {
block @A:
  r1 = mov(1)
}
)",
                    Mem);
  EXPECT_EQ(R.St, RunResult::Status::Error);
}

TEST(InterpreterTest, StepLimit) {
  Memory Mem;
  InterpOptions Opts;
  Opts.MaxSteps = 100;
  RunResult R = run(R"(
func @f {
block @Loop:
  b1 = pbr(@Loop)
  branch(T, b1)
}
)",
                    Mem, {}, Opts);
  EXPECT_EQ(R.St, RunResult::Status::StepLimit);
}

TEST(InterpreterTest, ProfileCounts) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @Entry:
  r1 = mov(4)
block @Loop:
  r1 = sub(r1, 1)
  p1:un = cmpp.gt(r1, 0)
  b1 = pbr(@Loop)
  branch(p1, b1)
  halt
}
)");
  Memory Mem;
  ProfileData Profile;
  InterpOptions Opts;
  Opts.Profile = &Profile;
  RunResult R = interpret(*F, Mem, {}, Opts);
  ASSERT_TRUE(R.halted());
  BlockId Loop = F->blockByName("Loop")->getId();
  OpId Br = F->block(1).ops()[3].getId();
  EXPECT_EQ(Profile.blockEntries(Loop), 4u);
  EXPECT_EQ(Profile.branchReached(Br), 4u);
  EXPECT_EQ(Profile.branchTaken(Br), 3u);
  EXPECT_DOUBLE_EQ(Profile.takenRatio(Br), 0.75);
}

TEST(InterpreterTest, StoreTraceRecordsExecutedStoresOnly) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.lt(1, 2)
  store(r1, 7) if p1
  store(r1, 9) if p2
  halt
}
)");
  Memory Mem;
  std::vector<StoreEvent> Trace;
  InterpOptions Opts;
  Opts.StoreTrace = &Trace;
  RunResult R = interpret(*F, Mem, {{Reg::gpr(1), 500}}, Opts);
  ASSERT_TRUE(R.halted());
  ASSERT_EQ(Trace.size(), 1u);
  EXPECT_EQ(Trace[0].Addr, 500);
  EXPECT_EQ(Trace[0].Value, 7);
}

TEST(InterpreterTest, DynStatsCountDispatchedAndEffective) {
  Memory Mem;
  RunResult R = run(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.lt(2, 1)
  r1 = mov(1) if p1
  r2 = mov(2) if p2
  halt
}
)",
                    Mem);
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.Stats.OpsDispatched, 4u);
  EXPECT_EQ(R.Stats.OpsEffective, 3u); // the p1-guarded mov is nullified
}

TEST(InterpreterTest, EquivalenceCheckerDetectsDifferences) {
  std::unique_ptr<Function> A = parseFunctionOrDie(R"(
func @a {
block @A:
  store(r1, 7)
  halt
}
)");
  std::unique_ptr<Function> B = parseFunctionOrDie(R"(
func @b {
block @A:
  store(r1, 8)
  halt
}
)");
  Memory Mem;
  EquivResult E =
      checkEquivalence(*A, *B, Mem, {{Reg::gpr(1), 100}});
  EXPECT_FALSE(E.Equivalent);
  EXPECT_NE(E.Detail.find("memory differs"), std::string::npos);

  EquivResult Same = checkEquivalence(*A, *A, Mem, {{Reg::gpr(1), 100}});
  EXPECT_TRUE(Same.Equivalent);
}

TEST(InterpreterTest, ZeroStoreEquivalentToNoStore) {
  std::unique_ptr<Function> A = parseFunctionOrDie(R"(
func @a {
block @A:
  store(r1, 0)
  halt
}
)");
  std::unique_ptr<Function> B = parseFunctionOrDie(R"(
func @b {
block @A:
  halt
}
)");
  Memory Mem;
  EquivResult E = checkEquivalence(*A, *B, Mem, {{Reg::gpr(1), 100}});
  EXPECT_TRUE(E.Equivalent) << E.Detail;
}

} // namespace
