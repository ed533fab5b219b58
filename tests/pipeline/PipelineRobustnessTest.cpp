//===- tests/pipeline/PipelineRobustnessTest.cpp - Fail-safe sessions -----===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The fail-safe half of the PipelineRun contract (docs/ROBUSTNESS.md):
// the finish() poison, stage-fault fallback, interpreter and transform
// budgets, rollback counters in the stats registry, and determinism of
// the degraded output across thread counts.
//
//===----------------------------------------------------------------------===//

#include "pipeline/PipelineRun.h"

#include "fuzz/Generator.h"
#include "ir/IRPrinter.h"
#include "support/Error.h"
#include "support/FaultInjector.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "workloads/Kernels.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

unsigned countCode(const DiagnosticEngine &Diags, DiagCode Code) {
  unsigned N = 0;
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Code == Code)
      ++N;
  return N;
}

KernelProgram syntheticProgram(uint64_t Seed) {
  SyntheticParams SP;
  SP.Superblocks = 3;
  SP.RungsPerSuperblock = 4;
  SP.FallThroughBias = 0.99;
  SP.Trips = 150;
  SP.Seed = Seed;
  return buildSyntheticProgram("robust", SP);
}

TEST(PipelineRobustness, FinishPoisonsTheSession) {
  PipelineRun Run(buildStrcpyKernel(4, 64, 1));
  PipelineResult R = Run.finish();
  ASSERT_NE(R.Treated, nullptr);

  // Any stage access after finish() is a loud fatal error, not a silent
  // use-after-move on the departed treated function.
  ScopedFatalErrorTrap Trap;
  try {
    (void)Run.treated();
    FAIL() << "treated() after finish() did not trap";
  } catch (const FatalError &E) {
    EXPECT_NE(E.message().find("after finish()"), std::string::npos)
        << E.message();
  }
  EXPECT_THROW((void)Run.baselineProfile(), FatalError);
  EXPECT_THROW((void)Run.finish(), FatalError); // second finish() too
}

TEST(PipelineRobustness, TransformStageFaultFallsBackToBaseline) {
  KernelProgram P = buildStrcpyKernel(4, 64, 1);
  std::unique_ptr<Function> Base = P.Func->clone();

  PipelineOptions Opts;
  Opts.FailSafe = true;
  DiagnosticEngine Diags;
  Opts.Diags = &Diags;
  StatsRegistry Stats;
  PipelineRun Run(std::move(P), Opts, &Stats, "p/");

  fault::ScopedFault Armed("pipeline.transform", 1);
  Status S = Run.tryPrepare();
  EXPECT_TRUE(S.ok()) << "fail-safe sessions degrade, never fail here";
  EXPECT_TRUE(Run.fellBack());
  EXPECT_EQ(Run.cprResult().CPRBlocksTransformed, 0u);
  EXPECT_GE(countCode(Diags, DiagCode::TransformFault), 1u);
  EXPECT_EQ(Stats.count("p/cpr/fallback_baseline"), 1.0);

  // finish() still yields a runnable function: the untreated baseline.
  PipelineResult R = Run.finish();
  ASSERT_NE(R.Treated, nullptr);
  EXPECT_EQ(printFunction(*R.Treated), printFunction(*Base));
  for (const MachineComparison &M : R.Machines)
    EXPECT_DOUBLE_EQ(M.speedup(), 1.0);
}

TEST(PipelineRobustness, InterpBudgetExhaustionIsAnOrdinaryDiagnostic) {
  PipelineOptions Opts;
  Opts.FailSafe = true;
  Opts.InterpMaxSteps = 5; // far below the kernel's dynamic length
  DiagnosticEngine Diags;
  Opts.Diags = &Diags;
  PipelineRun Run(buildStrcpyKernel(4, 64, 1), Opts);

  // The baseline profile is the session's foundation; when its budget
  // runs out the session fails -- via a returned Status, not an abort.
  Status S = Run.tryPrepare();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.diagnostic().Code, DiagCode::BudgetExhausted);
  EXPECT_GE(countCode(Diags, DiagCode::BudgetExhausted), 1u);
}

TEST(PipelineRobustness, TransformBudgetCountersLandInStats) {
  PipelineOptions Opts;
  Opts.FailSafe = true;
  Opts.TransformBudget.MaxSteps = 1;
  DiagnosticEngine Diags;
  Opts.Diags = &Diags;
  StatsRegistry Stats;
  PipelineRun Run(syntheticProgram(7), Opts, &Stats, "p/");

  ASSERT_TRUE(Run.tryPrepare().ok());
  EXPECT_TRUE(Run.cprResult().BudgetExhausted);
  EXPECT_EQ(Run.cprResult().CPRBlocksTransformed, 1u);
  EXPECT_EQ(Stats.count("p/budget/transform_exhausted"), 1.0);
  EXPECT_EQ(Stats.count("p/cpr/blocks_transformed"), 1.0);
  EXPECT_GE(Stats.count("p/cpr/regions_skipped_budget"), 1.0);
  EXPECT_TRUE(Run.checkEquivalenceResult().Equivalent);
}

TEST(PipelineRobustness, RollbackCountersLandInStats) {
  PipelineOptions Opts;
  Opts.FailSafe = true;
  DiagnosticEngine Diags;
  Opts.Diags = &Diags;
  StatsRegistry Stats;
  PipelineRun Run(syntheticProgram(404), Opts, &Stats, "p/");

  fault::ScopedFault Armed("cpr.restructure.plan", 1);
  ASSERT_TRUE(Run.tryPrepare().ok());
  ASSERT_TRUE(fault::fired());
  EXPECT_FALSE(Run.fellBack()) << "one region's failure is not a fallback";
  EXPECT_GE(Stats.count("p/cpr/blocks_rolled_back"), 1.0);
  EXPECT_GE(Stats.count("p/cpr/regions_rolled_back"), 1.0);
  EXPECT_GE(Stats.count("p/cpr/blocks_transformed"), 1.0)
      << "other regions stay treated";
  // The rollback diagnostics were mirrored under the engine's prefix.
  EXPECT_GE(Diags.count(DiagSeverity::Remark), 1u);
  EXPECT_TRUE(Run.checkEquivalenceResult().Equivalent);
}

TEST(PipelineRobustness, RegionEquivalenceRollsBackAlikeWithInjectedProfile) {
  // The per-region re-check compares each candidate with the baseline
  // profiling run's final state. An injected baseline profile comes
  // without a run, so the session records the baseline's state with one
  // run instead: the same regions roll back with the same diagnostics,
  // and the session interprets the baseline once either way.
  fault::ScopedFault Armed("cpr.restructure.compensation", fault::EveryHit);
  struct Outcome {
    std::string IR, Diags;
    StatsRegistry Stats;
  };
  auto Run = [](bool InjectProfile, Outcome &O) {
    KernelProgram P = generateProgram(2, GeneratorConfig());
    PipelineOptions Opts;
    Opts.FailSafe = true;
    Opts.RegionEquivalence = true;
    DiagnosticEngine Diags;
    Opts.Diags = &Diags;
    Memory Mem = P.InitMem;
    ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
    PipelineRun Session(std::move(P), Opts, &O.Stats, "p/");
    if (InjectProfile)
      Session.setBaselineProfile(std::move(Prof));
    ASSERT_TRUE(Session.tryPrepare().ok());
    EXPECT_FALSE(Session.fellBack()) << "every defective region rolled back";
    O.IR = printFunction(*Session.finish().Treated);
    for (const Diagnostic &D : Diags.diagnostics())
      O.Diags += D.str() + "\n";
  };
  Outcome Recorded, Injected;
  Run(false, Recorded);
  Run(true, Injected);
  EXPECT_EQ(Recorded.IR, Injected.IR);
  EXPECT_EQ(Recorded.Diags, Injected.Diags);
  EXPECT_GE(Recorded.Stats.count("p/cpr/blocks_rolled_back"), 1.0);
  EXPECT_EQ(Recorded.Stats.count("p/cpr/blocks_rolled_back"),
            Injected.Stats.count("p/cpr/blocks_rolled_back"));
  EXPECT_EQ(Recorded.Stats.count("p/interp/runs"),
            Injected.Stats.count("p/interp/runs"));
}

TEST(PipelineRobustness, DeadlineExpiredByTheOracleStillDegrades) {
  // The oracle makes the treated profiling run, yet the stage boundary
  // after it still polls the request deadline: a fail-safe session whose
  // deadline expired by then degrades to the baseline.
  PipelineOptions Opts;
  Opts.FailSafe = true;
  Opts.RequestDeadline = Deadline::afterMs(0);
  DiagnosticEngine Diags;
  Opts.Diags = &Diags;
  KernelProgram P = buildStrcpyKernel(4, 64, 1);
  std::unique_ptr<Function> Treated;
  {
    PipelineRun Source(buildStrcpyKernel(4, 64, 1));
    Treated = Source.treated().clone();
  }
  PipelineRun Run(std::move(P), Opts);
  // An injected treated function skips the pre-transform boundary.
  Run.setTreated(std::move(Treated));
  ASSERT_TRUE(Run.tryPrepare().ok());
  EXPECT_TRUE(Run.fellBack());
  EXPECT_EQ(countCode(Diags, DiagCode::DeadlineExceeded), 1u);
}

TEST(PipelineRobustness, DegradedOutputIsIdenticalAtAnyThreadCount) {
  // The rollback is surgical and deterministic: the same injected fault
  // yields byte-identical treated output whether finish() fans out on a
  // pool or runs inline.
  std::string Serial, Pooled;
  {
    PipelineOptions Opts;
    Opts.FailSafe = true;
    PipelineRun Run(syntheticProgram(404), Opts);
    fault::ScopedFault Armed("cpr.restructure.plan", 1);
    ASSERT_TRUE(Run.tryPrepare().ok());
    PipelineResult R = Run.finish(nullptr);
    Serial = printFunction(*R.Treated);
  }
  {
    ThreadPool Pool(4);
    PipelineOptions Opts;
    Opts.FailSafe = true;
    PipelineRun Run(syntheticProgram(404), Opts);
    fault::ScopedFault Armed("cpr.restructure.plan", 1);
    ASSERT_TRUE(Run.tryPrepare().ok());
    PipelineResult R = Run.finish(&Pool);
    Pooled = printFunction(*R.Treated);
  }
  EXPECT_EQ(Serial, Pooled);
}

} // namespace
