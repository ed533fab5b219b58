//===- tests/fuzz/RegressionTest.cpp - Reproducer replay harness ----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Replays every minimized reproducer in tests/fuzz/regressions/ through
// every default variant of the differential judge. A reproducer that once
// exposed a (since fixed or injected) defect must now pass every variant;
// files named
// "inject-*" came from the planted compensation-skip defect and are
// additionally re-verified to still trip it under the hook, so the
// harness itself cannot rot.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"

#include "fuzz/Differential.h"
#include "ir/Verifier.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#ifndef CPR_FUZZ_REGRESSION_DIR
#error "build must define CPR_FUZZ_REGRESSION_DIR"
#endif

using namespace cpr;

namespace {

std::vector<std::string> regressionFiles() {
  return listCorpusFiles(CPR_FUZZ_REGRESSION_DIR);
}

bool isInjectReproducer(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base =
      Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  return Base.rfind("inject-", 0) == 0;
}

TEST(FuzzRegressionTest, DirectoryIsNotEmpty) {
  EXPECT_FALSE(regressionFiles().empty())
      << "no reproducers under " << CPR_FUZZ_REGRESSION_DIR;
}

TEST(FuzzRegressionTest, EveryReproducerPassesTheProductionPipeline) {
  FuzzJudge Judge; // every default variant
  for (const std::string &Path : regressionFiles()) {
    FuzzParseResult FR = loadFuzzProgramFile(Path);
    ASSERT_TRUE(FR) << Path << ": " << FR.Error;
    ASSERT_TRUE(verifyFunction(*FR.Program.Func).empty()) << Path;
    CaseVerdict Case = Judge.judgeCase(FR.Program);
    EXPECT_EQ(Case.Worst.Outcome, FuzzOutcome::Pass)
        << Path << ": " << Case.Worst.Detail;
  }
}

TEST(FuzzRegressionTest, InjectReproducersStillTripThePlantedDefect) {
  fault::ScopedFault Inject("cpr.restructure.compensation",
                            fault::EveryHit);
  FuzzJudge Judge;
  bool SawOne = false;
  for (const std::string &Path : regressionFiles()) {
    if (!isInjectReproducer(Path))
      continue;
    SawOne = true;
    FuzzParseResult FR = loadFuzzProgramFile(Path);
    ASSERT_TRUE(FR) << Path << ": " << FR.Error;
    EXPECT_EQ(Judge.judgeCase(FR.Program).Worst.Outcome,
              FuzzOutcome::Mismatch)
        << Path << " no longer reproduces under the hook";
  }
  EXPECT_TRUE(SawOne) << "no inject-* reproducers found";
}

} // namespace
