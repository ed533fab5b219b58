//===- tests/pipeline/PipelineKernelsTest.cpp - End-to-end kernels --------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
// Runs every hand-written kernel through the full pipeline (profile ->
// FRP -> ICBM -> DCE -> schedule -> estimate) and checks the paper's
// qualitative claims: observational equivalence (enforced inside the
// pipeline), irredundant dynamic operation counts, reduced dynamic branch
// counts, and speedups that grow with machine width.
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompilerPipeline.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

struct KernelCase {
  const char *Name;
  KernelProgram (*Build)();
};

// Without a printer gtest lists the param as its raw bytes, i.e. two
// pointers that ASLR moves on every run; ctest test names are taken from
// that listing, so they would change from build to build.
void PrintTo(const KernelCase &C, std::ostream *OS) { *OS << C.Name; }

KernelProgram buildStrcpy() { return buildStrcpyKernel(8, 4096, 11); }
KernelProgram buildCmp() { return buildCmpKernel(8, 4096, 4000, 12); }
KernelProgram buildGrep() { return buildGrepKernel(8, 8192, 0.02, 13); }
KernelProgram buildWc() { return buildWcKernel(4, 8192, 14); }

const KernelCase Cases[] = {
    {"strcpy", buildStrcpy},
    {"cmp", buildCmp},
    {"grep", buildGrep},
    {"wc", buildWc},
};

class PipelineKernelTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(PipelineKernelTest, EquivalentAndIrredundant) {
  KernelProgram P = GetParam().Build();
  PipelineResult R = runPipeline(P); // aborts on non-equivalence

  // The transformation must fire on these branch-dominated kernels.
  EXPECT_GE(R.CPR.CPRBlocksTransformed, 1u) << GetParam().Name;

  // Irredundance (the paper's core ICBM property): dynamic operations do
  // not increase; dynamic branches drop.
  EXPECT_LE(R.dynOpRatio(), 1.001) << GetParam().Name;
  EXPECT_LT(R.dynBranchRatio(), 0.80) << GetParam().Name;

  // Static code growth exists but is bounded (compensation code).
  EXPECT_GE(R.staticOpRatio(), 1.0) << GetParam().Name;
  EXPECT_LT(R.staticOpRatio(), 2.5) << GetParam().Name;
}

TEST_P(PipelineKernelTest, SpeedupGrowsWithWidth) {
  KernelProgram P = GetParam().Build();
  PipelineResult R = runPipeline(P);

  double Med = R.speedupOn("medium");
  double Wid = R.speedupOn("wide");
  double Inf = R.speedupOn("infinite");

  // Kernels with biased branches and separable conditions are the paper's
  // best case: clear wins on medium and monotone growth toward infinite.
  EXPECT_GT(Med, 1.0) << GetParam().Name;
  EXPECT_GE(Wid, Med * 0.95) << GetParam().Name;
  EXPECT_GE(Inf, Wid * 0.95) << GetParam().Name;
  EXPECT_GT(Inf, 1.2) << GetParam().Name;
}

INSTANTIATE_TEST_SUITE_P(Kernels, PipelineKernelTest,
                         ::testing::ValuesIn(Cases),
                         [](const ::testing::TestParamInfo<KernelCase> &I) {
                           return std::string(I.param.Name);
                         });

TEST(PipelineKernelsTest, StrcpyUnrollSweepStaysEquivalent) {
  for (unsigned U : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
    KernelProgram P = buildStrcpyKernel(U, 1024, 100 + U);
    PipelineResult R = runPipeline(P); // equivalence enforced inside
    if (U >= 2) {
      EXPECT_GE(R.CPR.CPRBlocksTransformed, 1u) << "unroll " << U;
    }
  }
}

TEST(PipelineKernelsTest, ShortStringsExerciseEarlyExits) {
  // Short strings make the early exits hot: the exit-weight test must cut
  // CPR blocks short and equivalence must still hold (compensation paths
  // execute frequently).
  for (size_t Len : {0u, 1u, 2u, 3u, 5u, 7u, 9u}) {
    KernelProgram P = buildStrcpyKernel(4, Len, 200 + Len);
    PipelineResult R = runPipeline(P);
    (void)R;
  }
}

TEST(PipelineKernelsTest, CmpEarlyMismatch) {
  // A mismatch in the first chunk: the off-trace path runs on iteration 1.
  KernelProgram P = buildCmpKernel(8, 1024, /*MatchPrefix=*/3, 77);
  PipelineResult R = runPipeline(P);
  (void)R;
}

TEST(PipelineKernelsTest, GrepHitRateSweep) {
  for (double Rate : {0.0, 0.01, 0.1, 0.5}) {
    KernelProgram P = buildGrepKernel(8, 2048, Rate, 31);
    PipelineResult R = runPipeline(P);
    // Dense hits make the scan branches unbiased; CPR may fire less, but
    // must never break equivalence (checked inside) or inflate dynamic
    // work beyond the baseline meaningfully.
    EXPECT_LE(R.dynOpRatio(), 1.25) << "hit rate " << Rate;
  }
}

TEST(PipelineKernelsTest, BlockLengthModeAlsoShowsWins) {
  // The paper's literal schedule-length x frequency formula.
  KernelProgram P = buildStrcpyKernel(8, 4096, 5);
  PipelineOptions Opts;
  Opts.Perf.WeightMode = PerfModelOptions::Mode::BlockLength;
  PipelineResult R = runPipeline(P, Opts);
  EXPECT_GT(R.speedupOn("infinite"), 1.1);
}

} // namespace
