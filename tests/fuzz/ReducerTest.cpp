//===- tests/fuzz/ReducerTest.cpp - Delta-debugging reduction -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The acceptance bar of the subsystem: the planted compensation-skip
// miscompile must be reduced to a tiny reproducer (<= 20 operations)
// that reparses from its serialized form and still fails the oracle.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Reducer.h"

#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "ir/Verifier.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

/// The differential judge of the default variant, estimated on medium.
FuzzJudge defaultJudge() {
  return FuzzJudge(FuzzOracle::Differential, {{"default", CPROptions(), 1}},
                   {MachineDesc::medium()});
}

/// Reduces \p P under variant 0 of \p Judge.
ReduceResult reduce(const KernelProgram &P, const FuzzJudge &Judge,
                    const ReducerOptions &Opts = ReducerOptions()) {
  return reduceCaseWith(
      P, [&Judge](const KernelProgram &C) { return Judge.judge(C, 0); }, Opts);
}

/// Finds the first generated program that trips the planted defect under
/// variant 0 of \p Judge. The hook must already be set.
KernelProgram findFailingProgram(const FuzzJudge &Judge, size_t &SeedOut) {
  GeneratorConfig Cfg;
  for (uint64_t Seed = 0; Seed < 64; ++Seed) {
    KernelProgram P = generateProgram(Seed, Cfg);
    if (Judge.judge(P, 0).Outcome == FuzzOutcome::Mismatch) {
      SeedOut = Seed;
      return P;
    }
  }
  ADD_FAILURE() << "no seed trips the planted defect";
  return generateProgram(0, Cfg);
}

TEST(ReducerTest, PlantedDefectReducesToTinyReproducer) {
  fault::ScopedFault Inject("cpr.restructure.compensation",
                            fault::EveryHit);
  FuzzJudge Judge = defaultJudge();
  size_t Seed = 0;
  KernelProgram P = findFailingProgram(Judge, Seed);

  ReduceResult R = reduce(P, Judge);
  EXPECT_EQ(R.Outcome, FuzzOutcome::Mismatch);
  EXPECT_LE(R.ReducedOps, 20u)
      << "seed " << Seed << ": " << R.OriginalOps << " -> " << R.ReducedOps;
  EXPECT_LT(R.ReducedOps, R.OriginalOps);
  EXPECT_TRUE(verifyFunction(*R.Reduced.Func).empty());

  // The reduced program still fails with the same signature.
  FuzzVerdict Again = Judge.judge(R.Reduced, 0);
  EXPECT_EQ(Again.Outcome, FuzzOutcome::Mismatch);
  EXPECT_EQ(Again.Divergence, R.Divergence);

  // ... and survives a serialize/parse round trip still failing.
  FuzzParseResult FR = parseFuzzProgram(serializeFuzzProgram(R.Reduced));
  ASSERT_TRUE(FR) << FR.Error;
  FuzzVerdict Replayed = Judge.judge(FR.Program, 0);
  EXPECT_EQ(Replayed.Outcome, FuzzOutcome::Mismatch);
  EXPECT_EQ(Replayed.Divergence, R.Divergence);
}

TEST(ReducerTest, ReductionIsDeterministic) {
  fault::ScopedFault Inject("cpr.restructure.compensation",
                            fault::EveryHit);
  FuzzJudge Judge = defaultJudge();
  size_t Seed = 0;
  KernelProgram P = findFailingProgram(Judge, Seed);
  ReduceResult A = reduce(P, Judge);
  ReduceResult B = reduce(P, Judge);
  EXPECT_EQ(serializeFuzzProgram(A.Reduced), serializeFuzzProgram(B.Reduced));
  EXPECT_EQ(A.OracleRuns, B.OracleRuns);
}

TEST(ReducerTest, PassingProgramIsReturnedUnreduced) {
  // No injection: the pipeline is correct and there is nothing to chase.
  FuzzJudge Judge = defaultJudge();
  GeneratorConfig Cfg;
  KernelProgram P = generateProgram(2, Cfg);
  ReduceResult R = reduce(P, Judge);
  EXPECT_EQ(R.Outcome, FuzzOutcome::Pass);
  EXPECT_EQ(R.ReducedOps, R.OriginalOps);
  EXPECT_EQ(R.OracleRuns, 1u);
}

TEST(ReducerTest, OracleBudgetIsRespected) {
  fault::ScopedFault Inject("cpr.restructure.compensation",
                            fault::EveryHit);
  FuzzJudge Judge = defaultJudge();
  size_t Seed = 0;
  KernelProgram P = findFailingProgram(Judge, Seed);
  ReducerOptions Opts;
  Opts.OracleBudget.MaxSteps = 5;
  ReduceResult R = reduce(P, Judge, Opts);
  EXPECT_LE(R.OracleRuns, 5u + 1u); // +1 for the signature-seeding run
}

} // namespace
