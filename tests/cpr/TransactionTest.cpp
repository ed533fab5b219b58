//===- tests/cpr/TransactionTest.cpp - Per-region rollback ----------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "cpr/RegionTransaction.h"

#include "cpr/ControlCPR.h"
#include "fuzz/Generator.h"
#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "support/FaultInjector.h"
#include "workloads/Kernels.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

#include <optional>

using namespace cpr;

namespace {

std::unique_ptr<Function> twoBlockFunc() {
  return parseFunctionOrDie(R"(
func @t {
block @A:
  r1 = add(r2, 1)
  p1:un = cmpp.eq(r1, 0)
  b1 = pbr(@B)
  branch(p1, b1)
  halt
block @B:
  r3 = add(r1, 2)
  halt
}
)");
}

TEST(RegionTransactionTest, RollbackRestoresRegionAndRemovesBlocks) {
  std::unique_ptr<Function> F = twoBlockFunc();
  std::string Before = printFunction(*F);
  size_t BlocksBefore = F->numBlocks();

  RegionTransaction Txn(*F, F->block(0).getId());
  // Mutate the region and append a block, as restructure would.
  F->block(0).ops().clear();
  Block &Extra = F->addBlock("A_cmp_test");
  Extra.setCompensation(true);
  ASSERT_EQ(F->numBlocks(), BlocksBefore + 1);

  EXPECT_FALSE(Txn.rolledBack());
  unsigned Removed = Txn.rollback();
  EXPECT_TRUE(Txn.rolledBack());
  EXPECT_EQ(Removed, 1u);
  EXPECT_EQ(F->numBlocks(), BlocksBefore);
  EXPECT_EQ(printFunction(*F), Before);
}

TEST(RegionTransactionTest, RollbackIsIdempotent) {
  std::unique_ptr<Function> F = twoBlockFunc();
  std::string Before = printFunction(*F);
  RegionTransaction Txn(*F, F->block(0).getId());
  F->block(0).ops().pop_back();
  Txn.rollback();
  EXPECT_EQ(Txn.rollback(), 0u); // second rollback is a no-op
  EXPECT_EQ(printFunction(*F), Before);
}

TEST(RegionTransactionTest, RollbackIsSurgical) {
  // Only the transaction's region is restored; edits to other blocks
  // (another region's committed treatment) survive.
  std::unique_ptr<Function> F = twoBlockFunc();
  RegionTransaction Txn(*F, F->block(0).getId());
  F->block(0).ops().clear();
  Operation KeepMe = F->makeOp(Opcode::Halt);
  F->block(1).ops().push_back(std::move(KeepMe));
  size_t OtherSize = F->block(1).size();

  Txn.rollback();
  EXPECT_FALSE(F->block(0).empty());
  EXPECT_EQ(F->block(1).size(), OtherSize);
}

/// Transactions nest the way the ICBM driver uses them: one per region
/// around one per CPR block. A committed inner transaction's compensation
/// block survives a later inner rollback, which removes only its own, and
/// goes with the outer rollback.
TEST(RegionTransactionTest, NestedTransactionsRemoveOnlyTheirOwnBlocks) {
  std::unique_ptr<Function> F = twoBlockFunc();
  std::string Before = printFunction(*F);
  size_t BlocksBefore = F->numBlocks();
  BlockId Region = F->block(0).getId();

  RegionTransaction Outer(*F, Region);
  F->block(0).ops().pop_back(); // an enabler's edit, as FRP conversion's
  {
    RegionTransaction Committed(*F, Region);
    F->block(0).ops().pop_back();
    F->addBlock("A_cmp1").setCompensation(true);
  }
  std::string AfterCommit = printFunction(*F);
  {
    RegionTransaction Failed(*F, Region);
    F->block(0).ops().clear();
    F->addBlock("A_cmp2").setCompensation(true);
    EXPECT_EQ(Failed.rollback(), 1u);
  }
  EXPECT_EQ(printFunction(*F), AfterCommit);
  ASSERT_EQ(F->numBlocks(), BlocksBefore + 1);
  EXPECT_EQ(F->block(BlocksBefore).getName(), "A_cmp1");

  EXPECT_EQ(Outer.rollback(), 1u);
  EXPECT_EQ(F->numBlocks(), BlocksBefore);
  EXPECT_EQ(printFunction(*F), Before);
}

TEST(RegionTransactionTest, VerifyRejectsBrokenIR) {
  std::unique_ptr<Function> F = twoBlockFunc();
  RegionTransaction Txn(*F, F->block(0).getId());
  Status Ok = Txn.verify("unit test");
  EXPECT_TRUE(Ok.ok());

  // Break the region: an arithmetic op with a missing source.
  F->block(0).ops().clear();
  Operation Bad = F->makeOp(Opcode::Add);
  Bad.addDef(Reg(RegClass::GPR, 9));
  F->block(0).ops().push_back(std::move(Bad));
  Status S = Txn.verify("unit test");
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.diagnostic().Code, DiagCode::VerifyFailed);
  EXPECT_NE(S.diagnostic().Message.find("unit test"), std::string::npos);
  Txn.rollback();
  EXPECT_TRUE(Txn.verify("after rollback").ok());
}

TEST(RegionTransactionTest, InjectedVerifyFault) {
  std::unique_ptr<Function> F = twoBlockFunc();
  RegionTransaction Txn(*F, F->block(0).getId());
  fault::ScopedFault Armed("ir.verify", 1);
  Status S = Txn.verify("armed");
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.diagnostic().Code, DiagCode::VerifyFailed);
  EXPECT_EQ(S.diagnostic().Site, "ir.verify");
}

/// Driver-level rollback: a single-CPR-block function whose transform is
/// made to fail must come back byte-identical to the input.
TEST(RegionTransactionTest, DriverRollbackIsByteIdentical) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @g {
block @A:
  r21 = load.m1(r1)
  p1:un, p2:uc = cmpp.eq(r21, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r22 = load.m1(r2)
  p3:un, p4:uc = cmpp.lt(r22, 5) if p2
  b2 = pbr(@X)
  branch(p3, b2)
  store.m2(r5, r22) if p4
  halt
block @X:
  halt
}
)");
  ProfileData Prof;
  for (const Operation &Op : F->block(0).ops())
    if (Op.isBranch()) {
      Prof.addBranchReached(Op.getId(), 100);
      Prof.addBranchTaken(Op.getId(), 2); // heavily biased fall-through
    }
  std::string Before = printFunction(*F);

  fault::ScopedFault Armed("cpr.offtrace.move", 1);
  CPRContext Ctx;
  Ctx.FailSafe = true;
  DiagnosticEngine Diags;
  Ctx.Diags = &Diags;
  CPRResult R = runControlCPR(*F, Prof, CPROptions(), Ctx);
  ASSERT_TRUE(fault::fired()) << "fixture stopped being transformable";
  EXPECT_GE(R.BlocksRolledBack, 1u);
  EXPECT_GE(R.RegionsRolledBack, 1u);
  EXPECT_EQ(R.CPRBlocksTransformed, 0u);
  EXPECT_EQ(printFunction(*F), Before);
  EXPECT_GE(Diags.errorCount(), 1u);   // the transform fault
  EXPECT_GE(Diags.count(DiagSeverity::Remark), 1u); // the rollback remark
}

/// Multi-region: one region's failure must not disturb the treatment of
/// the others, and the result stays equivalent to the baseline.
TEST(RegionTransactionTest, DriverRollbackLeavesOtherRegionsTreated) {
  SyntheticParams SP;
  SP.Superblocks = 3;
  SP.RungsPerSuperblock = 4;
  SP.FallThroughBias = 0.99;
  SP.Trips = 200;
  SP.Seed = 404;
  KernelProgram P = buildSyntheticProgram("rollback", SP);
  std::unique_ptr<Function> Base = P.Func->clone();
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*Base, Mem, P.InitRegs);

  fault::ScopedFault Armed("cpr.restructure.plan", 1);
  CPRContext Ctx;
  Ctx.FailSafe = true;
  CPRResult R = runControlCPR(*P.Func, Prof, CPROptions(), Ctx);
  EXPECT_GE(R.BlocksRolledBack, 1u);
  EXPECT_GE(R.CPRBlocksTransformed, 1u) << "other regions stay treated";

  EquivResult E = checkEquivalence(*Base, *P.Func, P.InitMem, P.InitRegs);
  EXPECT_TRUE(E.Equivalent) << E.Detail;
}

/// The planted compensation-skip miscompile is verifier-clean, so only
/// the per-region equivalence re-check can catch it -- and must, turning
/// it into a rollback (docs/ROBUSTNESS.md). With the re-check off the
/// defect survives the pass, which is exactly what the differential
/// fuzzer's oracle then reports as a mismatch.
TEST(RegionTransactionTest, PlantedDefectCaughtByRegionOracle) {
  // The compensation site only exists on the fall-through variation, so
  // scan a fixed seed list of generated programs for one where the
  // armed defect both fires and observably miscompiles (deterministic:
  // the first qualifying seed is always the same).
  GeneratorConfig GC;
  KernelProgram P;
  std::unique_ptr<Function> Base;
  bool FoundCase = false;
  for (uint64_t Seed = 1; Seed <= 32 && !FoundCase; ++Seed) {
    P = generateProgram(Seed, GC);
    Base = P.Func->clone();
    Memory Mem = P.InitMem;
    ProfileData Prof = profileRun(*Base, Mem, P.InitRegs);

    // With the re-check OFF the armed defect must survive as a
    // miscompile (the final oracle run diverges).
    std::unique_ptr<Function> T = Base->clone();
    fault::ScopedFault Armed("cpr.restructure.compensation", 1);
    CPRContext Ctx;
    Ctx.FailSafe = true;
    CPRResult R = runControlCPR(*T, Prof, CPROptions(), Ctx);
    if (!fault::fired())
      continue;
    EXPECT_EQ(R.BlocksRolledBack, 0u) << "verifier-clean defect";
    EquivResult E = checkEquivalence(*Base, *T, P.InitMem, P.InitRegs);
    FoundCase = !E.Equivalent;
  }
  ASSERT_TRUE(FoundCase)
      << "no generated case made the planted defect observable";
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*Base, Mem, P.InitRegs);

  // With the re-check ON the same defect becomes a per-region rollback
  // and the output stays baseline-equivalent.
  {
    std::unique_ptr<Function> T = Base->clone();
    fault::ScopedFault Armed("cpr.restructure.compensation", 1);
    CPRContext Ctx;
    Ctx.FailSafe = true;
    DiagnosticEngine Diags;
    Ctx.Diags = &Diags;
    Ctx.RegionCheck = [&](const Function &Cand) -> Status {
      EquivResult E = checkEquivalence(*Base, Cand, P.InitMem, P.InitRegs);
      if (!E.Equivalent)
        return Status::error(DiagCode::OracleMismatch, E.Detail,
                             "interp.oracle");
      return Status::success();
    };
    CPRResult R = runControlCPR(*T, Prof, CPROptions(), Ctx);
    ASSERT_TRUE(fault::fired());
    EXPECT_GE(R.BlocksRolledBack, 1u);
    EquivResult E = checkEquivalence(*Base, *T, P.InitMem, P.InitRegs);
    EXPECT_TRUE(E.Equivalent) << E.Detail;
    EXPECT_GE(Diags.errorCount(), 1u);
  }
}

/// The region oracle over the baseline's recorded final state runs each
/// candidate once, yet rolls back exactly the regions a two-run oracle
/// (checkEquivalence of baseline and candidate per region) rolls back, with
/// byte-identical diagnostics and output.
TEST(RegionTransactionTest, RecordedBaselineOracleRollsBackTheSameRegions) {
  unsigned RolledBack = 0;
  for (bool Defect : {false, true}) {
    for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
      SCOPED_TRACE("seed " + std::to_string(Seed));
      KernelProgram P = generateProgram(Seed, GeneratorConfig());
      Memory Mem = P.InitMem;
      ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
      RunState Final = recordRun(*P.Func, P.InitMem, P.InitRegs);

      struct Outcome {
        std::string IR, Diags;
        CPRResult R;
        uint64_t Runs = 0;
      };
      auto Transform = [&](bool Recorded) {
        Outcome O;
        std::unique_ptr<Function> T = P.Func->clone();
        std::optional<fault::ScopedFault> Armed;
        if (Defect)
          Armed.emplace("cpr.restructure.compensation", fault::EveryHit);
        CPRContext Ctx;
        Ctx.FailSafe = true;
        DiagnosticEngine Diags;
        Ctx.Diags = &Diags;
        Ctx.RegionCheck = [&](const Function &Cand) -> Status {
          if (Recorded)
            return checkRegionEquivalence(*P.Func, Final, Cand, P.InitMem,
                                          P.InitRegs, 0, &O.Runs);
          EquivResult E =
              checkEquivalence(*P.Func, Cand, P.InitMem, P.InitRegs);
          O.Runs += 2;
          if (!E.Equivalent)
            return Status::error(DiagCode::OracleMismatch,
                                 "region equivalence re-check failed [" +
                                     std::string(divergenceName(E.Kind)) +
                                     "]: " + E.Detail,
                                 "interp.oracle");
          return Status::success();
        };
        O.R = runControlCPR(*T, Prof, CPROptions(), Ctx);
        O.IR = printFunction(*T);
        for (const Diagnostic &D : Diags.diagnostics())
          O.Diags += D.str() + "\n";
        return O;
      };
      Outcome TwoRuns = Transform(false);
      Outcome Recorded = Transform(true);
      EXPECT_EQ(Recorded.IR, TwoRuns.IR);
      EXPECT_EQ(Recorded.Diags, TwoRuns.Diags);
      EXPECT_EQ(Recorded.R.BlocksRolledBack, TwoRuns.R.BlocksRolledBack);
      EXPECT_EQ(Recorded.R.RegionsRolledBack, TwoRuns.R.RegionsRolledBack);
      // One candidate run per check instead of two (the planted defect
      // traps, so no mismatch needs the stores re-run).
      EXPECT_EQ(2 * Recorded.Runs, TwoRuns.Runs);
      RolledBack += Recorded.R.BlocksRolledBack;
    }
  }
  EXPECT_GT(RolledBack, 0u) << "the planted defect must be caught";
}

/// Budget exhaustion is an ordinary diagnostic: regions past the budget
/// are left untreated, everything before it stays treated, and the
/// result still runs.
TEST(RegionTransactionTest, TransformBudgetDegradesGracefully) {
  SyntheticParams SP;
  SP.Superblocks = 3;
  SP.RungsPerSuperblock = 4;
  SP.FallThroughBias = 0.99;
  SP.Trips = 150;
  SP.Seed = 7;
  KernelProgram P = buildSyntheticProgram("budget", SP);
  std::unique_ptr<Function> Base = P.Func->clone();
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*Base, Mem, P.InitRegs);

  Budget Limit;
  Limit.MaxSteps = 1; // one CPR-block transform allowed
  BudgetTracker Tracker(Limit);
  CPRContext Ctx;
  Ctx.FailSafe = true;
  Ctx.Budget = &Tracker;
  DiagnosticEngine Diags;
  Ctx.Diags = &Diags;
  CPRResult R = runControlCPR(*P.Func, Prof, CPROptions(), Ctx);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_EQ(R.CPRBlocksTransformed, 1u) << "budget of 1 grants 1 transform";
  EXPECT_GE(R.RegionsSkippedBudget, 1u);
  EXPECT_GE(Diags.count(DiagSeverity::Warning), 1u);

  EquivResult E = checkEquivalence(*Base, *P.Func, P.InitMem, P.InitRegs);
  EXPECT_TRUE(E.Equivalent) << E.Detail;
}

} // namespace
