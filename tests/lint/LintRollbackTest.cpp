//===- tests/lint/LintRollbackTest.cpp - Lint-triggered rollback ----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The integration contract of docs/LINT.md: a post-transform lint finding
// on a fail-safe region behaves exactly like any other region failure --
// the RegionTransaction rolls the region back byte-exactly -- and the
// pipeline's Lint stage wires that hook up, reports the findings, and in
// strict mode turns a surviving violation into a fatal error.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "cpr/ControlCPR.h"
#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "pipeline/PipelineRun.h"
#include "support/Error.h"
#include "support/FaultInjector.h"
#include "support/Statistics.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

std::unique_ptr<Function> cprKernel() {
  return parseFunctionOrDie(R"(
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
}

ProfileData biasedProfile(const Function &F) {
  ProfileData Prof;
  for (const Operation &Op : F.block(0).ops())
    if (Op.isBranch()) {
      Prof.addBranchReached(Op.getId(), 100);
      Prof.addBranchTaken(Op.getId(), 2);
    }
  return Prof;
}

KernelProgram syntheticProgram(uint64_t Seed) {
  SyntheticParams SP;
  SP.Superblocks = 3;
  SP.RungsPerSuperblock = 4;
  SP.FallThroughBias = 0.99;
  SP.Trips = 150;
  SP.Seed = Seed;
  return buildSyntheticProgram("lint-rollback", SP);
}

/// Without the hook the planted compensation-skip defect commits: the
/// transaction believes it succeeded, the verifier agrees, and only the
/// static checks see the lost off-trace closure.
TEST(LintRollback, WithoutHookDefectCommitsAndLintFlagsIt) {
  std::unique_ptr<Function> F = cprKernel();
  ProfileData Prof = biasedProfile(*F);
  fault::ScopedFault Skip("cpr.restructure.compensation",
                          fault::EveryHit);
  CPRContext Ctx;
  Ctx.FailSafe = true;
  CPRResult R = runControlCPR(*F, Prof, CPROptions(), Ctx);
  ASSERT_GE(R.CPRBlocksTransformed, 1u);
  EXPECT_EQ(R.BlocksRolledBack, 0u) << "verifier-clean defect";
  EXPECT_TRUE(verifyFunction(*F).empty());

  LintResult L = LintDriver().run(*F);
  ASSERT_GE(L.errorCount(), 1u);
  bool HasCompFinding = false;
  for (const LintFinding &Finding : L.Findings)
    if (Finding.Code == DiagCode::LintCompensation)
      HasCompFinding = true;
  EXPECT_TRUE(HasCompFinding);
}

/// With lint as the region check the same defect becomes a per-region
/// rollback, byte-exact on this single-region kernel (the TransactionTest
/// contract, driven by a static finding instead of the interpreter).
TEST(LintRollback, RegionLintHookRollsBackByteExactly) {
  std::unique_ptr<Function> F = cprKernel();
  std::string Before = printFunction(*F);
  ProfileData Prof = biasedProfile(*F);
  fault::ScopedFault Skip("cpr.restructure.compensation",
                          fault::EveryHit);

  LintDriver Linter;
  CPRContext Ctx;
  Ctx.FailSafe = true;
  DiagnosticEngine Diags;
  Ctx.Diags = &Diags;
  Ctx.RegionCheck = [&Linter](const Function &Candidate) -> Status {
    return lintStatus(Linter.run(Candidate));
  };
  CPRResult R = runControlCPR(*F, Prof, CPROptions(), Ctx);
  EXPECT_GE(R.BlocksRolledBack, 1u);
  EXPECT_GE(R.RegionsRolledBack, 1u);
  EXPECT_EQ(R.CPRBlocksTransformed, 0u);
  EXPECT_EQ(printFunction(*F), Before);
  EXPECT_GE(Diags.errorCount(), 1u);
  EXPECT_TRUE(LintDriver().run(*F).clean());
}

/// The pipeline's Lint stage in a fail-safe session: the planted defect
/// is caught region by region as the transactions try to commit, the
/// session never has to fall back wholesale, and the shipped function is
/// lint-clean and observationally equivalent to the baseline.
TEST(LintRollback, PipelineLintStageRollsBackPlantedDefect) {
  KernelProgram P = syntheticProgram(404);
  std::unique_ptr<Function> Base = P.Func->clone();
  Memory Mem = P.InitMem;
  std::vector<RegBinding> Regs = P.InitRegs;

  fault::ScopedFault Skip("cpr.restructure.compensation",
                          fault::EveryHit);
  PipelineOptions Opts;
  Opts.Lint = true;
  Opts.FailSafe = true;
  DiagnosticEngine Diags;
  Opts.Diags = &Diags;
  StatsRegistry Stats;
  PipelineRun Session(std::move(P), Opts, &Stats);
  const Function &Treated = Session.treated();

  EXPECT_FALSE(Session.fellBack())
      << "regions roll back one by one; no wholesale fallback needed";
  EXPECT_GE(Session.cprResult().RegionsRolledBack, 1u);
  EXPECT_GE(Diags.errorCount(), 1u);
  EXPECT_TRUE(LintDriver().run(Treated).clean());
  EXPECT_EQ(Stats.count("lint/treated_findings"), 0.0);

  EquivResult E = checkEquivalence(*Base, Treated, Mem, Regs);
  EXPECT_TRUE(E.Equivalent) << E.Detail;
}

/// The region check runs lint first and the interpreter oracle only on a
/// candidate lint passes. Here lint vetoes every candidate, so a session
/// with both on interprets exactly as often as the lint-only session,
/// while the oracle-only session runs the oracle on each candidate.
TEST(LintRollback, LintVetoRunsNoRegionOracle) {
  fault::ScopedFault Skip("cpr.restructure.compensation",
                          fault::EveryHit);
  struct Outcome {
    double Runs;
    std::string IR;
    CPRResult R;
  };
  auto Compile = [](bool Lint, bool Oracle) {
    PipelineOptions Opts;
    Opts.FailSafe = true;
    Opts.Lint = Lint;
    Opts.RegionEquivalence = Oracle;
    StatsRegistry Stats;
    PipelineRun Session(syntheticProgram(404), Opts, &Stats);
    Outcome O;
    O.IR = printFunction(Session.treated());
    O.R = Session.cprResult();
    O.Runs = Stats.count("interp/runs");
    return O;
  };
  Outcome LintOnly = Compile(true, false);
  Outcome OracleOnly = Compile(false, true);
  Outcome Both = Compile(true, true);
  ASSERT_GE(LintOnly.R.BlocksRolledBack, 1u);
  ASSERT_EQ(LintOnly.R.CPRBlocksTransformed, 0u)
      << "premise: lint vetoes every candidate";
  EXPECT_GT(OracleOnly.Runs, LintOnly.Runs);
  EXPECT_EQ(Both.Runs, LintOnly.Runs);
  EXPECT_EQ(Both.IR, LintOnly.IR);
  EXPECT_EQ(Both.R.BlocksRolledBack, LintOnly.R.BlocksRolledBack);
}

/// Strict mode has no transaction to roll back: a post-transform lint
/// finding on a clean baseline is a fatal stage failure.
TEST(LintRollback, StrictModeLintFindingIsFatal) {
  KernelProgram P = syntheticProgram(404);
  fault::ScopedFault Skip("cpr.restructure.compensation",
                          fault::EveryHit);
  PipelineOptions Opts;
  Opts.Lint = true;
  Opts.FailSafe = false;
  PipelineRun Session(std::move(P), Opts);
  ScopedFatalErrorTrap Trap;
  EXPECT_THROW(Session.treated(), FatalError);
}

} // namespace
