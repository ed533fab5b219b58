//===- tests/sched/PerfModelTest.cpp - Table 2 estimate tests -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// estimatePerformance (sim/TraceSimulator.h), the paper's Section 7
// estimate, against hand computations and the machine ordering.
//
//===----------------------------------------------------------------------===//

#include "sim/TraceSimulator.h"

#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

TEST(PerfModelTest, BlockLengthModeMatchesHandComputation) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  r1 = add(r9, 1)
  r2 = add(r1, 1)
  r3 = add(r2, 1)
  halt
}
)");
  ProfileData P;
  P.addBlockEntry(F->block(0).getId(), 10);

  PerfModelOptions Opts;
  Opts.WeightMode = PerfModelOptions::Mode::BlockLength;
  SimEstimate E =
      estimatePerformance(*F, MachineDesc::infinite(), P, Opts);
  // Serial adds complete at cycles 1,2,3 (the halt has no dependence on
  // pure arithmetic and does not extend the schedule): length 3, ten
  // entries -> 30 cycles.
  ASSERT_EQ(E.Blocks.size(), 1u);
  EXPECT_EQ(E.Blocks[0].Entries, 10u);
  EXPECT_DOUBLE_EQ(E.Blocks[0].Cycles, 30.0);
  EXPECT_DOUBLE_EQ(E.TotalCycles, 30.0);
}

TEST(PerfModelTest, ExitAwareChargesTakenExitsEarly) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un = cmpp.eq(r1, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r2 = xor(r9, 1)
  r3 = xor(r2, 2)
  r4 = xor(r3, 3)
  store(r4, r4)
  halt
block @X:
  halt
}
)");
  const Block &A = F->block(0);
  OpId Br = A.ops()[2].getId();

  ProfileData P;
  P.addBlockEntry(A.getId(), 100);
  P.addBranchReached(Br, 100);
  P.addBranchTaken(Br, 100); // always taken

  PerfModelOptions ExitAware;
  SimEstimate EA =
      estimatePerformance(*F, MachineDesc::medium(), P, ExitAware);

  PerfModelOptions BlockLen;
  BlockLen.WeightMode = PerfModelOptions::Mode::BlockLength;
  SimEstimate BL =
      estimatePerformance(*F, MachineDesc::medium(), P, BlockLen);

  // Every entry leaves at the branch: the exit-aware estimate must be
  // strictly cheaper than charging the whole block.
  EXPECT_LT(EA.TotalCycles, BL.TotalCycles);
  EXPECT_GT(EA.TotalCycles, 0.0);
}

TEST(PerfModelTest, FallThroughEntriesPayFullLength) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un = cmpp.eq(r1, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r2 = xor(r9, 1)
  halt
block @X:
  halt
}
)");
  const Block &A = F->block(0);
  ProfileData P;
  P.addBlockEntry(A.getId(), 50);
  P.addBranchReached(A.ops()[2].getId(), 50);
  // Never taken: exit-aware equals block-length mode.
  PerfModelOptions ExitAware;
  PerfModelOptions BlockLen;
  BlockLen.WeightMode = PerfModelOptions::Mode::BlockLength;
  double EA = estimatePerformance(*F, MachineDesc::medium(), P, ExitAware)
                  .TotalCycles;
  double BL = estimatePerformance(*F, MachineDesc::medium(), P, BlockLen)
                  .TotalCycles;
  EXPECT_DOUBLE_EQ(EA, BL);
}

TEST(PerfModelTest, ColdBlocksContributeNothing) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  halt
block @Cold:
  r1 = add(r1, 1)
  halt
}
)");
  ProfileData P;
  P.addBlockEntry(F->block(0).getId(), 5);
  SimEstimate E = estimatePerformance(*F, MachineDesc::medium(), P);
  // The cold block has no row and is not scheduled: the one graph built
  // is @A's.
  ASSERT_EQ(E.Blocks.size(), 1u);
  EXPECT_EQ(E.Blocks[0].Name, "A");
  EXPECT_GT(E.Blocks[0].Cycles, 0.0);
  EXPECT_EQ(E.TotalCycles, E.Blocks[0].Cycles);
  EXPECT_EQ(E.DepGraphsBuilt, 1u);
}

TEST(PerfModelTest, WiderMachinesEstimateNoSlower) {
  KernelProgram P = buildWcKernel(4, 1024);
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
  double Prev = 1e300;
  for (const MachineDesc &MD : MachineDesc::paperModels()) {
    double Cyc = estimatePerformance(*P.Func, MD, Prof).TotalCycles;
    EXPECT_LE(Cyc, Prev * 1.0001) << MD.getName();
    Prev = Cyc;
  }
}

TEST(PerfModelTest, BranchLatencyRaisesCost) {
  KernelProgram P = buildStrcpyKernel(4, 1024);
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
  double Prev = 0.0;
  for (int Lat : {1, 2, 3}) {
    MachineDesc MD("m", 4, 2, 2, 1, false, Lat);
    double Cyc = estimatePerformance(*P.Func, MD, Prof).TotalCycles;
    EXPECT_GT(Cyc, Prev);
    Prev = Cyc;
  }
}

} // namespace
