//===- tests/sim/TraceSimulatorTest.cpp - Trace simulator tests -----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/TraceSimulator.h"

#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

/// Interprets \p F recording both profile and trace; asserts a clean halt.
struct TracedRun {
  ProfileData Profile;
  BranchTrace Trace;
  DynStats Stats;

  TracedRun(const Function &F, Memory Mem,
            const std::vector<RegBinding> &Regs = {}) {
    InterpOptions IO;
    IO.Profile = &Profile;
    IO.Trace = &Trace;
    RunResult R = interpret(F, Mem, Regs, IO);
    EXPECT_TRUE(R.halted()) << R.ErrorMsg;
    Stats = R.Stats;
  }
};

std::unique_ptr<BranchPredictor> staticFor(const ProfileData &P) {
  PredictorConfig C;
  C.Profile = &P;
  return makePredictor(PredictorKind::Static, C);
}

TEST(TraceSimulatorTest, EmptyTraceOnStraightLineCode) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @straight {
block @A:
  r1 = add(r9, 1)
  r2 = add(r1, 1)
  halt
}
)");
  TracedRun Run(*F, Memory());
  ASSERT_EQ(Run.Trace.size(), 0u);
  ASSERT_TRUE(Run.Trace.hasTerminal());

  std::unique_ptr<BranchPredictor> Pred = staticFor(Run.Profile);
  SimEstimate E = simulateTrace(*F, MachineDesc::medium(), Run.Trace, *Pred);
  ASSERT_TRUE(E.ok()) << E.Error;
  EXPECT_EQ(E.Branches, 0u);
  EXPECT_EQ(E.Mispredicts, 0u);
  EXPECT_EQ(E.BlockEntries, 1u);
  EXPECT_EQ(E.OpsDispatched, Run.Stats.OpsDispatched);
  EXPECT_GT(E.TotalCycles, 0.0);
}

TEST(TraceSimulatorTest, EmptyTraceWithoutTerminalIsRejected) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @straight {
block @A:
  halt
}
)");
  BranchTrace Empty;
  std::unique_ptr<BranchPredictor> Pred =
      makePredictor(PredictorKind::Static);
  SimEstimate E = simulateTrace(*F, MachineDesc::medium(), Empty, *Pred);
  EXPECT_FALSE(E.ok());
  EXPECT_NE(E.Error.find("terminal"), std::string::npos);
}

TEST(TraceSimulatorTest, SingleBranchLoop) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @loop {
block @Entry:
  r1 = mov(5)
block @Loop:
  r1 = sub(r1, 1)
  p1:un = cmpp.gt(r1, 0)
  b1 = pbr(@Loop)
  branch(p1, b1)
  halt
}
)");
  TracedRun Run(*F, Memory());
  // Five loop iterations: taken four times, then the fall-through exit.
  ASSERT_EQ(Run.Trace.size(), 5u);
  ASSERT_TRUE(Run.Trace.hasTerminal());

  SimOptions SO;
  SO.MispredictPenalty = 10;
  std::unique_ptr<BranchPredictor> Pred =
      makePredictor(PredictorKind::Bimodal);
  SimEstimate E =
      simulateTrace(*F, MachineDesc::medium(), Run.Trace, *Pred, SO);
  ASSERT_TRUE(E.ok()) << E.Error;
  EXPECT_EQ(E.Branches, 5u);
  EXPECT_EQ(E.BlockEntries, 6u); // @Entry once + @Loop five times
  EXPECT_EQ(E.OpsDispatched, Run.Stats.OpsDispatched);
  // Weakly-not-taken warmup misses the first taken outcome, then the
  // final not-taken exit: exactly 2 mispredictions.
  EXPECT_EQ(E.Mispredicts, 2u);
  EXPECT_EQ(E.PenaltyCycles, 20u);
  EXPECT_EQ(E.Pred.Lookups, 5u);

  // Per-block detail: all mispredictions accrue to @Loop.
  ASSERT_EQ(E.Blocks.size(), 2u);
  EXPECT_EQ(E.Blocks[1].Name, "Loop");
  EXPECT_EQ(E.Blocks[1].Mispredicts, 2u);
  EXPECT_EQ(E.Blocks[1].Entries, 5u);
}

// The simulator's core contract: with a zero misprediction penalty it
// reproduces the ExitAware estimate exactly. Both price through one
// pricer, so this checks that the profile's counts equal the replay's.
TEST(TraceSimulatorTest, PenaltyZeroMatchesExitAwarePerfModel) {
  for (auto Build : {buildWcKernel, buildStrcpyKernel}) {
    KernelProgram P = Build(4, 1024, 11);
    TracedRun Run(*P.Func, P.InitMem, P.InitRegs);

    SimOptions SO;
    SO.MispredictPenalty = 0;
    for (const MachineDesc &MD : MachineDesc::paperModels()) {
      std::unique_ptr<BranchPredictor> Pred = staticFor(Run.Profile);
      SimEstimate E = simulateTrace(*P.Func, MD, Run.Trace, *Pred, SO);
      ASSERT_TRUE(E.ok()) << E.Error;

      SimEstimate Static = estimatePerformance(*P.Func, MD, Run.Profile);
      EXPECT_DOUBLE_EQ(E.TotalCycles, Static.TotalCycles)
          << P.Func->getName() << " on " << MD.getName();
      EXPECT_EQ(E.OpsDispatched, Run.Stats.OpsDispatched);
      EXPECT_EQ(E.Branches, Run.Stats.BranchesDispatched);
    }
  }
}

TEST(TraceSimulatorTest, PenaltyScalesLinearlyWithMispredicts) {
  KernelProgram P = buildGrepKernel(4, 2048, 0.1, 21);
  TracedRun Run(*P.Func, P.InitMem, P.InitRegs);

  SimOptions Zero;
  Zero.MispredictPenalty = 0;
  std::unique_ptr<BranchPredictor> P0 = makePredictor(PredictorKind::Bimodal);
  SimEstimate E0 =
      simulateTrace(*P.Func, MachineDesc::wide(), Run.Trace, *P0, Zero);
  ASSERT_TRUE(E0.ok()) << E0.Error;
  ASSERT_GT(E0.Mispredicts, 0u);

  SimOptions Ten;
  Ten.MispredictPenalty = 10;
  std::unique_ptr<BranchPredictor> P1 = makePredictor(PredictorKind::Bimodal);
  SimEstimate E1 =
      simulateTrace(*P.Func, MachineDesc::wide(), Run.Trace, *P1, Ten);
  ASSERT_TRUE(E1.ok()) << E1.Error;

  EXPECT_EQ(E0.Mispredicts, E1.Mispredicts);
  EXPECT_DOUBLE_EQ(E1.TotalCycles - E0.TotalCycles,
                   10.0 * static_cast<double>(E1.Mispredicts));
  EXPECT_EQ(E1.PenaltyCycles, 10 * E1.Mispredicts);
}

TEST(TraceSimulatorTest, NegativePenaltyUsesMachineKnob) {
  KernelProgram P = buildCmpKernel(4, 1024, 900, 5);
  TracedRun Run(*P.Func, P.InitMem, P.InitRegs);

  MachineDesc Cheap = MachineDesc::medium();
  Cheap.setMispredictPenalty(0);
  MachineDesc Dear = MachineDesc::medium();
  Dear.setMispredictPenalty(20);

  std::unique_ptr<BranchPredictor> PA = makePredictor(PredictorKind::Bimodal);
  SimEstimate EA = simulateTrace(*P.Func, Cheap, Run.Trace, *PA);
  std::unique_ptr<BranchPredictor> PB = makePredictor(PredictorKind::Bimodal);
  SimEstimate EB = simulateTrace(*P.Func, Dear, Run.Trace, *PB);
  ASSERT_TRUE(EA.ok() && EB.ok());
  ASSERT_GT(EA.Mispredicts, 0u);
  EXPECT_DOUBLE_EQ(EB.TotalCycles - EA.TotalCycles,
                   20.0 * static_cast<double>(EA.Mispredicts));
}

TEST(TraceSimulatorTest, ForeignTraceIsRejected) {
  KernelProgram A = buildStrcpyKernel(4, 512);
  KernelProgram B = buildWcKernel(4, 512);
  TracedRun RunA(*A.Func, A.InitMem, A.InitRegs);

  std::unique_ptr<BranchPredictor> Pred =
      makePredictor(PredictorKind::Bimodal);
  SimEstimate E =
      simulateTrace(*B.Func, MachineDesc::medium(), RunA.Trace, *Pred);
  EXPECT_FALSE(E.ok());
}

TEST(TraceSimulatorTest, BetterPredictorNeverCostsMoreCycles) {
  // Same trace, same machine: a predictor with fewer mispredictions must
  // produce no more cycles (the schedule charges are identical).
  KernelProgram P = buildLexKernel(4, 4096, 9);
  TracedRun Run(*P.Func, P.InitMem, P.InitRegs);

  std::unique_ptr<BranchPredictor> S = staticFor(Run.Profile);
  SimEstimate ES = simulateTrace(*P.Func, MachineDesc::wide(), Run.Trace, *S);
  std::unique_ptr<BranchPredictor> G = makePredictor(PredictorKind::Gshare);
  SimEstimate EG = simulateTrace(*P.Func, MachineDesc::wide(), Run.Trace, *G);
  ASSERT_TRUE(ES.ok() && EG.ok());
  if (ES.Mispredicts <= EG.Mispredicts)
    EXPECT_LE(ES.TotalCycles, EG.TotalCycles);
  else
    EXPECT_GE(ES.TotalCycles, EG.TotalCycles);
}

} // namespace
