//===- tests/cpr/ControlCPRDriverTest.cpp - ICBM driver tests -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "cpr/ControlCPR.h"

#include "analysis/Liveness.h"
#include "cpr/OffTraceMotion.h"
#include "cpr/PredicateSpeculation.h"
#include "cpr/RegionTransaction.h"
#include "cpr/Restructure.h"
#include "fuzz/Generator.h"
#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/CompilerPipeline.h"
#include "regions/FRPConversion.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace cpr;

namespace {

TEST(ControlCPRDriverTest, UntransformedRegionsAreRestored) {
  // A region with unbiased branches (exit-weight stops everything): the
  // driver must leave it byte-identical to the input (no stray FRP
  // conversion or speculation).
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un = cmpp.eq(r1, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r5 = add(r9, 1)
  p2:un = cmpp.eq(r2, 0)
  b2 = pbr(@X)
  branch(p2, b2)
  store(r5, r5)
  halt
block @X:
  halt
}
)");
  std::string Before = printFunction(*F);

  ProfileData Prof;
  for (const Operation &Op : F->block(0).ops())
    if (Op.isBranch()) {
      Prof.addBranchReached(Op.getId(), 100);
      Prof.addBranchTaken(Op.getId(), 50); // unbiased
    }
  CPROptions Opts;
  Opts.ExitWeightThreshold = 0.10;
  Opts.EnableTakenVariation = false;
  CPRResult R = runControlCPR(*F, Prof, Opts);
  EXPECT_EQ(R.CPRBlocksTransformed, 0u);
  EXPECT_EQ(printFunction(*F), Before);
}

TEST(ControlCPRDriverTest, MultiRegionFunctions) {
  // Several superblocks in one function: the driver transforms each
  // independently and the stats aggregate.
  SyntheticParams SP;
  SP.Superblocks = 3;
  SP.RungsPerSuperblock = 4;
  SP.FallThroughBias = 0.99;
  SP.Trips = 200;
  SP.Seed = 404;
  KernelProgram P = buildSyntheticProgram("multi", SP);
  std::unique_ptr<Function> Base = P.Func->clone();
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*Base, Mem, P.InitRegs);

  CPRResult R = runControlCPR(*P.Func, Prof, CPROptions());
  EXPECT_GE(R.RegionsProcessed, 3u);
  EXPECT_GE(R.CPRBlocksTransformed, 3u);
  EXPECT_GE(R.BranchesCovered, 9u);

  EquivResult E = checkEquivalence(*Base, *P.Func, P.InitMem, P.InitRegs);
  EXPECT_TRUE(E.Equivalent) << E.Detail;
}

TEST(ControlCPRDriverTest, CompensationBlocksAreNotReprocessed) {
  // Two rounds of the driver must not explode: compensation blocks are
  // skipped and the second round's output still behaves identically.
  SyntheticParams SP;
  SP.Superblocks = 1;
  SP.RungsPerSuperblock = 5;
  SP.FallThroughBias = 0.99;
  SP.Trips = 100;
  SP.Seed = 405;
  KernelProgram P = buildSyntheticProgram("reproc", SP);
  std::unique_ptr<Function> Base = P.Func->clone();
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*Base, Mem, P.InitRegs);

  runControlCPR(*P.Func, Prof, CPROptions());
  size_t BlocksAfterOne = P.Func->numBlocks();

  Memory Mem2 = P.InitMem;
  ProfileData Prof2 = profileRun(*P.Func, Mem2, P.InitRegs);
  runControlCPR(*P.Func, Prof2, CPROptions());
  // Compensation blocks were skipped (no compensation-of-compensation).
  for (size_t I = 0; I < P.Func->numBlocks(); ++I) {
    const std::string &Name = P.Func->block(I).getName();
    EXPECT_EQ(Name.find("_cmp"), Name.rfind("_cmp"))
        << "nested compensation block: " << Name;
  }
  (void)BlocksAfterOne;
  EquivResult E = checkEquivalence(*Base, *P.Func, P.InitMem, P.InitRegs);
  EXPECT_TRUE(E.Equivalent) << E.Detail;
}

TEST(ControlCPRDriverTest, StatsAreConsistent) {
  KernelProgram P = buildStrcpyKernel(8, 2048, 55);
  PipelineResult R = runPipeline(P);
  const CPRResult &C = R.CPR;
  // Stop-reason histogram covers every formed CPR block.
  unsigned StopSum = 0;
  for (unsigned S : C.StopReasons)
    StopSum += S;
  EXPECT_EQ(StopSum, C.CPRBlocksFormed);
  // Transformed blocks are a subset of formed ones; covered branches need
  // at least MinBranches per transformed block.
  EXPECT_LE(C.CPRBlocksTransformed, C.CPRBlocksFormed);
  EXPECT_GE(C.BranchesCovered, 2 * C.CPRBlocksTransformed);
  EXPECT_EQ(C.LookaheadsInserted, C.BranchesCovered)
      << "one lookahead per covered branch";
}

TEST(ControlCPRDriverTest, TrapNeverExecutes) {
  // The compensation-block trap canary: run a workload with frequent
  // off-trace entries and assert no trap fires (the suitability theorem
  // holds dynamically).
  KernelProgram P = buildStrcpyKernel(4, 9, 77); // short string: hot exits
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
  std::unique_ptr<Function> T = applyControlCPR(*P.Func, Prof, CPROptions());
  Memory Mem2 = P.InitMem;
  RunResult R = interpret(*T, Mem2, P.InitRegs);
  EXPECT_TRUE(R.halted()) << R.ErrorMsg;
  EXPECT_NE(R.St, RunResult::Status::Trapped);
}

TEST(ControlCPRDriverTest, UnchangedRegionsShareOneLivenessSolve) {
  // Straight-line regions with nothing to convert, speculate or match:
  // no phase edits the function, so one solve serves every region.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  r1 = mov(3)
  r2 = add(r1, 1)
block @B:
  r3 = mul(r2, r1)
  r9 = add(r3, r2)
block @C:
  r4 = sub(r9, r1)
  r9 = add(r9, r4)
block @D:
  r9 = add(r9, 1)
  halt
}
)");
  std::string Before = printFunction(*F);
  CPRResult R = runControlCPR(*F, ProfileData(), CPROptions());
  EXPECT_EQ(R.RegionsProcessed, 4u);
  EXPECT_EQ(R.Promoted, 0u);
  EXPECT_EQ(R.LivenessSolves, 1u);
  EXPECT_EQ(R.LivenessPartialSolves, 0u);
  EXPECT_EQ(printFunction(*F), Before);
}

/// The registers of \p S, sorted: the cache's views iterate in the order
/// of its grown numbering, a fresh solve's in first-appearance order.
std::vector<Reg> sortedRegs(LiveSet S) {
  std::vector<Reg> V(S.begin(), S.end());
  std::sort(V.begin(), V.end());
  return V;
}

/// Expects the cache's current solution to hold exactly the registers of
/// a fresh solve, for every block and exit of \p F.
void expectFreshSolution(LivenessCache &LC, const Function &F,
                         const std::string &Where) {
  SCOPED_TRACE(Where);
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

/// What a replay saw.
struct ReplayCounts {
  unsigned HandOffs = 0, Restored = 0, Committed = 0;
};

/// Replays runControlCPR's region sequence and edit reports on \p F
/// through \p LC, skipping a region without a branch as the driver does,
/// and checks the solution at each point where a phase takes it from the
/// cache, and after DCE. The demotion hand-off inside speculation reuses
/// the solution checked before speculation whenever promotion changed
/// nothing, which the replay checks as an operation-list identity.
void replayDriver(Function &F, const ProfileData &Prof, LivenessCache &LC,
                  ReplayCounts &C) {
  std::vector<BlockId> Regions;
  for (size_t I = 0; I < F.numBlocks(); ++I)
    if (!F.block(I).isCompensation())
      Regions.push_back(F.block(I).getId());
  auto IsBranch = [](const Operation &Op) { return Op.isBranch(); };
  for (BlockId RId : Regions) {
    Block &B = *F.blockById(RId);
    if (B.empty() || std::none_of(B.ops().begin(), B.ops().end(), IsBranch))
      continue;
    const std::string Region = "region @" + B.getName();
    std::vector<Operation> Snapshot = B.ops();
    convertToFRP(F, B);
    if (B.ops() != Snapshot)
      LC.noteEdit(B);
    expectFreshSolution(LC, F, Region + " before speculation");
    ++C.HandOffs;
    std::vector<Operation> BeforeSpeculation = B.ops();
    SpeculationStats SS = speculatePredicates(F, B, &LC);
    if (SS.Promoted == 0) {
      EXPECT_EQ(B.ops(), BeforeSpeculation) << Region;
    }
    expectFreshSolution(LC, F, Region + " before match");
    ++C.HandOffs;
    std::vector<CPRBlockInfo> Blocks =
        matchCPRBlocks(F, B, Prof, CPROptions(), &LC);
    bool AnyTransformable = false, Kept = false;
    for (const CPRBlockInfo &Info : Blocks) {
      if (!Info.Transformable)
        continue;
      AnyTransformable = true;
      RegionTransaction Txn(F, B.getId());
      Expected<RestructurePlan> Plan = restructureCPRBlock(F, B, Info);
      LC.noteEdit(B);
      ASSERT_TRUE(Plan.ok()) << Region << ": " << Plan.diagnostic().str();
      expectFreshSolution(LC, F, Region + " before motion");
      ++C.HandOffs;
      Expected<MotionStats> MS = moveOffTrace(F, *Plan, &LC);
      LC.noteEdit(B);
      if (const Block *Comp = F.blockById(Plan->CompBlock))
        LC.noteEdit(*Comp);
      ASSERT_TRUE(MS.ok()) << Region << ": " << MS.diagnostic().str();
      Status V = Txn.verify("replay");
      ASSERT_TRUE(V.ok()) << Region << ": " << V.diagnostic().str();
      Kept = true;
    }
    if (!Kept) {
      B.ops() = std::move(Snapshot);
      LC.noteEdit(B);
    }
    ++(AnyTransformable ? C.Committed : C.Restored);
  }
  eliminateDeadCode(F, &LC);
  expectFreshSolution(LC, F, "after DCE");
}

TEST(ControlCPRDriverTest, CachedLivenessMatchesAFreshSolveAtEveryHandOff) {
  // The replay must agree with the driver on the output and on the number
  // of full and partial solves, so a report the driver misses or adds
  // shows up as a count mismatch.
  ReplayCounts C;
  unsigned Partial = 0;
  for (unsigned MaxBlocks : {40u, 120u}) {
    GeneratorConfig Cfg;
    Cfg.MaxBlocks = MaxBlocks;
    Cfg.MaxLoopDepth = 3;
    Cfg.MaxItemsPerRegion = 8;
    Cfg.SyntheticFrac = 0.0;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      SCOPED_TRACE("MaxBlocks " + std::to_string(MaxBlocks) + " seed " +
                   std::to_string(Seed));
      KernelProgram P = generateProgram(Seed * 7919, Cfg);
      Memory Mem = P.InitMem;
      ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
      std::unique_ptr<Function> Driven = P.Func->clone();
      CPRResult R = runControlCPR(*Driven, Prof, CPROptions());

      LivenessCache LC(*P.Func);
      replayDriver(*P.Func, Prof, LC, C);
      if (HasFatalFailure())
        return;
      EXPECT_EQ(printFunction(*P.Func), printFunction(*Driven));
      EXPECT_EQ(LC.solves(), R.LivenessSolves);
      EXPECT_EQ(LC.partialSolves(), R.LivenessPartialSolves);
      Partial += R.LivenessPartialSolves;
    }
  }
  EXPECT_GT(C.HandOffs, 1000u);
  EXPECT_GT(C.Restored, 400u);
  EXPECT_GT(C.Committed, 30u);
  EXPECT_GT(Partial, 20u);
}

TEST(ControlCPRDriverTest, RegistersAtMaxRegIdCostOnePageEach) {
  // A transformable program that also names r1048575 and p1048575, ids at
  // MaxRegId: the driver's output matches the replay whose every hand-off
  // equals a fresh solve, and the numbering's id table stays a few pages.
  SyntheticParams SP;
  SP.Superblocks = 2;
  SP.RungsPerSuperblock = 4;
  SP.FallThroughBias = 0.99;
  SP.Trips = 50;
  SP.Seed = 406;
  KernelProgram P = buildSyntheticProgram("maxid", SP);
  Function &F = *P.Func;
  const Reg Gpr = Reg::gpr(MaxRegId), Pred = Reg::pred(MaxRegId);
  Block &Entry = F.entry();
  Operation SetP = F.makeOp(Opcode::Mov);
  SetP.addDef(Pred);
  SetP.addSrc(Operand::imm(1));
  Operation SetR = F.makeOp(Opcode::Mov);
  SetR.addDef(Gpr);
  SetR.addSrc(Operand::imm(5));
  SetR.setGuard(Pred);
  Entry.ops().insert(Entry.ops().begin(), {SetP, SetR});
  F.observableRegs().push_back(Gpr);
  ASSERT_NE(printFunction(F).find("p1048575"), std::string::npos);

  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(F, Mem, P.InitRegs);
  std::unique_ptr<Function> Driven = F.clone();
  CPRResult R = runControlCPR(*Driven, Prof, CPROptions());
  EXPECT_GE(R.CPRBlocksTransformed, 2u);

  LivenessCache LC(F);
  ReplayCounts C;
  replayDriver(F, Prof, LC, C);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(printFunction(F), printFunction(*Driven));
  EXPECT_EQ(LC.solves(), R.LivenessSolves);
  EXPECT_EQ(LC.partialSolves(), R.LivenessPartialSolves);
  const RegNumbering &N = LC.get().numbering();
  EXPECT_GE(N.indexOf(Gpr), 0);
  EXPECT_GE(N.indexOf(Pred), 0);
  // Per class: a 1,024-entry directory and the pages in use, far from
  // the 4 MiB a slot per id up to MaxRegId would take.
  EXPECT_LE(N.tableBytes(), 48u * 1024);
}

} // namespace
