//===- tests/fuzz/DifferentialTest.cpp - Differential oracle & campaigns --===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// End-to-end checks of the differential judge and the campaign loop: a
// clean pipeline yields all-pass campaigns, campaigns classify
// identically at any thread count, and the planted compensation-skip
// miscompile (the oracle's self-test) is caught.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "support/FaultInjector.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace cpr;

namespace {

/// One variant on one machine keeps these tests fast; determinism and
/// classification do not depend on the sweep's size.
FuzzCampaignOptions smallCampaign(uint64_t Seed, unsigned Runs) {
  FuzzCampaignOptions Opts;
  Opts.Seed = Seed;
  Opts.Runs = Runs;
  Opts.Variants = {{"default", CPROptions(), 1}};
  Opts.Machines = {MachineDesc::medium()};
  return Opts;
}

std::string failureSignature(const FuzzCampaignResult &R) {
  std::ostringstream Out;
  Out << R.summary() << "\n";
  for (const FuzzFailure &F : R.Failures)
    Out << F.CaseIndex << " " << fuzzOutcomeName(F.Outcome) << " "
        << divergenceName(F.Divergence) << " " << F.VariantName << " "
        << F.Detail << "\n";
  return Out.str();
}

TEST(DifferentialTest, CleanPipelinePassesEveryCell) {
  FuzzJudge Judge; // every default variant, estimated on medium and wide
  ASSERT_EQ(Judge.variants().size(), defaultFuzzVariants().size());
  GeneratorConfig Cfg;
  for (uint64_t Seed : {2ull, 9ull}) {
    KernelProgram P = generateProgram(Seed, Cfg);
    for (size_t V = 0; V < Judge.variants().size(); ++V) {
      FuzzVerdict Verdict = Judge.judge(P, V);
      EXPECT_EQ(Verdict.Outcome, FuzzOutcome::Pass)
          << "seed " << Seed << ": " << Verdict.Detail;
      EXPECT_FALSE(Verdict.BaselineDirty); // only the static side lints
    }
  }
}

TEST(DifferentialTest, CleanCampaignIsClean) {
  FuzzCampaignOptions Opts = smallCampaign(11, 8);
  FuzzCampaignResult R = runFuzzCampaign(Opts);
  EXPECT_TRUE(R.clean()) << failureSignature(R);
  EXPECT_EQ(R.Passes, 8u);
  EXPECT_EQ(R.summary(),
            "cases=8 pass=8 mismatch=0 verifier-reject=0 crash=0");
}

TEST(DifferentialTest, CampaignIsThreadCountIndependent) {
  FuzzCampaignOptions Opts = smallCampaign(1, 10);
  Opts.InjectDefect = true; // guarantees some failures to compare
  Opts.Threads = 1;
  FuzzCampaignResult Serial = runFuzzCampaign(Opts);
  Opts.Threads = 3;
  FuzzCampaignResult Parallel = runFuzzCampaign(Opts);
  EXPECT_FALSE(Serial.clean());
  EXPECT_EQ(failureSignature(Serial), failureSignature(Parallel));
}

TEST(DifferentialTest, InjectedDefectIsCaughtAsMismatch) {
  FuzzCampaignOptions Opts = smallCampaign(1, 10);
  Opts.InjectDefect = true;
  FuzzCampaignResult R = runFuzzCampaign(Opts);
  EXPECT_GT(R.Mismatches, 0u) << R.summary();
  for (const FuzzFailure &F : R.Failures) {
    EXPECT_EQ(F.Outcome, FuzzOutcome::Mismatch);
    EXPECT_FALSE(F.Detail.empty());
    // Without reduction the failure still carries a replayable program.
    EXPECT_NE(F.ReducedText.find("func @"), std::string::npos);
  }
}

TEST(DifferentialTest, InjectionHookRestoresItself) {
  ASSERT_EQ(fault::armedSite(), "");
  FuzzCampaignOptions Opts = smallCampaign(1, 2);
  Opts.InjectDefect = true;
  (void)runFuzzCampaign(Opts);
  EXPECT_EQ(fault::armedSite(), "");
}

TEST(DifferentialTest, StatsCountersTallyTheCampaign) {
  StatsRegistry Stats;
  FuzzCampaignOptions Opts = smallCampaign(1, 6);
  Opts.InjectDefect = true;
  Opts.Stats = &Stats;
  FuzzCampaignResult R = runFuzzCampaign(Opts);
  EXPECT_EQ(Stats.count("fuzz/cases"), 6.0);
  EXPECT_EQ(Stats.count("fuzz/passes"), static_cast<double>(R.Passes));
  EXPECT_EQ(Stats.count("fuzz/mismatches"),
            static_cast<double>(R.Mismatches));
  EXPECT_GT(R.Mismatches, 0u);
}

TEST(DifferentialTest, MismatchOutranksCrashInSeverity) {
  EXPECT_GT(fuzzOutcomeSeverity(FuzzOutcome::Mismatch),
            fuzzOutcomeSeverity(FuzzOutcome::Crash));
  EXPECT_GT(fuzzOutcomeSeverity(FuzzOutcome::Crash),
            fuzzOutcomeSeverity(FuzzOutcome::VerifierReject));
  EXPECT_GT(fuzzOutcomeSeverity(FuzzOutcome::VerifierReject),
            fuzzOutcomeSeverity(FuzzOutcome::Pass));
}

} // namespace
