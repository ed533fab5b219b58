//===- tests/lint/LintOracleTest.cpp - Static and cross-validating oracles ===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The campaign loop under the two judges that lint:
//
//  - LintStaticOracle: cpr-fuzz's --static-oracle mode judges cases with
//    the cpr-lint checks instead of the interpreter: a clean campaign
//    passes, the planted compensation-skip miscompile is flagged as
//    lint-reject on every case it corrupts -- without a single execution
//    -- and still is after reduction under the same judge, and the
//    outcome is deterministic at any thread count.
//  - CrossValidation: --cross-validate judges each case with both
//    oracles; a clean campaign has no disagreement, a crash fails the
//    campaign, and the outcome is deterministic at any thread count.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/Fuzzer.h"
#include "support/FaultInjector.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace cpr;

namespace {

std::string failures(const FuzzCampaignResult &R) {
  std::ostringstream OS;
  for (const FuzzFailure &F : R.Failures)
    OS << "case " << F.CaseIndex << " " << fuzzOutcomeName(F.Outcome)
       << " [" << F.VariantName << "]: " << F.Detail << "\n";
  return OS.str();
}

FuzzCampaignOptions campaign(FuzzOracle Oracle, uint64_t Seed,
                             unsigned Runs) {
  FuzzCampaignOptions Opts;
  Opts.Oracle = Oracle;
  Opts.Seed = Seed;
  Opts.Runs = Runs;
  return Opts;
}

TEST(LintStaticOracle, CleanCampaignPasses) {
  FuzzCampaignResult R =
      runFuzzCampaign(campaign(FuzzOracle::StaticLint, 7, 10));
  EXPECT_EQ(R.Cases, 10u);
  EXPECT_TRUE(R.clean()) << failures(R);
  EXPECT_EQ(R.LintRejects, 0u);
}

TEST(LintStaticOracle, PlantedDefectIsFlaggedWithoutExecution) {
  FuzzCampaignOptions Opts = campaign(FuzzOracle::StaticLint, 7, 10);
  Opts.InjectDefect = true;
  FuzzCampaignResult R = runFuzzCampaign(Opts);
  EXPECT_GE(R.LintRejects, 1u) << "static oracle missed the miscompile";
  for (const FuzzFailure &F : R.Failures) {
    EXPECT_EQ(F.Outcome, FuzzOutcome::LintReject);
    EXPECT_NE(F.Detail.find("lint-"), std::string::npos) << F.Detail;
    EXPECT_FALSE(F.ReducedText.empty())
        << "failures keep their reproducer text";
  }
}

TEST(LintStaticOracle, PlantedDefectReducesUnderTheStaticJudge) {
  // Reduction re-judges every candidate with the failure's own judge, so
  // a lint reject shrinks to a smaller program that is still one.
  FuzzCampaignOptions Opts = campaign(FuzzOracle::StaticLint, 7, 4);
  Opts.Variants = {{"default", CPROptions(), 1}};
  Opts.Machines = {MachineDesc::medium()};
  Opts.InjectDefect = true;
  Opts.Reduce = true;
  FuzzCampaignResult R = runFuzzCampaign(Opts);
  ASSERT_GE(R.LintRejects, 1u) << R.summary();
  FuzzJudge Judge(FuzzOracle::StaticLint, Opts.Variants, Opts.Machines);
  fault::ScopedFault Inject("cpr.restructure.compensation", fault::EveryHit);
  for (const FuzzFailure &F : R.Failures) {
    EXPECT_EQ(F.Outcome, FuzzOutcome::LintReject);
    EXPECT_LT(F.ReducedOps, F.OriginalOps) << "case " << F.CaseIndex;
    FuzzParseResult Reduced = parseFuzzProgram(F.ReducedText);
    ASSERT_TRUE(Reduced) << Reduced.Error;
    EXPECT_EQ(Judge.judge(Reduced.Program, 0).Outcome,
              FuzzOutcome::LintReject)
        << "case " << F.CaseIndex;
  }
}

TEST(LintStaticOracle, DeterministicAtAnyThreadCount) {
  FuzzCampaignOptions Opts = campaign(FuzzOracle::StaticLint, 11, 8);
  Opts.InjectDefect = true;
  Opts.Threads = 1;
  FuzzCampaignResult A = runFuzzCampaign(Opts);
  Opts.Threads = 3;
  FuzzCampaignResult B = runFuzzCampaign(Opts);
  EXPECT_EQ(A.summary(), B.summary());
  EXPECT_EQ(failures(A), failures(B));
}

TEST(CrossValidation, CleanCampaignHasNoDisagreement) {
  FuzzCampaignResult R =
      runFuzzCampaign(campaign(FuzzOracle::CrossValidate, 7, 10));
  EXPECT_EQ(R.Cases, 10u);
  EXPECT_TRUE(R.clean()) << failures(R);
  EXPECT_EQ(R.Passes, 10u);
  EXPECT_EQ(R.CrossConfirmedButPass + R.CrossMismatchUnproved, 0u);
}

TEST(CrossValidation, CrashIsAFailure) {
  // Every motion fails, fatally in the strict session: each case crashes,
  // and a crash fails the campaign under this oracle as under the others.
  FuzzCampaignOptions Opts = campaign(FuzzOracle::CrossValidate, 7, 3);
  Opts.Variants = {{"default", CPROptions(), 1}};
  fault::ScopedFault Armed("cpr.offtrace.move", fault::EveryHit);
  FuzzCampaignResult R = runFuzzCampaign(Opts);
  EXPECT_EQ(R.Crashes, 3u) << R.summary();
  EXPECT_FALSE(R.clean());
  ASSERT_EQ(R.Failures.size(), 3u);
  for (const FuzzFailure &F : R.Failures) {
    EXPECT_EQ(F.Outcome, FuzzOutcome::Crash);
    EXPECT_NE(F.Detail.find("injected fault"), std::string::npos)
        << F.Detail;
  }
}

TEST(CrossValidation, DeterministicAtAnyThreadCount) {
  // The workers share the judge and the stats registry; the tallies they
  // leave there are as deterministic as the result.
  FuzzCampaignOptions Opts = campaign(FuzzOracle::CrossValidate, 7, 12);
  StatsRegistry StatsA, StatsB;
  Opts.Threads = 1;
  Opts.Stats = &StatsA;
  FuzzCampaignResult A = runFuzzCampaign(Opts);
  Opts.Threads = 3;
  Opts.Stats = &StatsB;
  FuzzCampaignResult B = runFuzzCampaign(Opts);
  EXPECT_EQ(A.summary(), B.summary());
  EXPECT_EQ(failures(A), failures(B));
  for (const char *Key : {"fuzz/cases", "fuzz/passes", "fuzz/mismatches",
                          "fuzz/lint_baseline_dirty"}) {
    EXPECT_EQ(StatsA.count(Key), StatsB.count(Key)) << Key;
  }
  EXPECT_EQ(StatsB.count("fuzz/cases"), 12.0);
  EXPECT_EQ(StatsB.count("fuzz/lint_baseline_dirty"),
            static_cast<double>(B.LintBaselineDirty));
}

} // namespace
