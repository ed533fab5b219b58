//===- bench/bench_fig3_blocking.cpp - Paper Figure 3 ---------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Regenerates Figure 3: partitioning a long superblock into multiple CPR
// blocks. Sweeps the CPR-block size cap on a 12-branch superblock and
// reports, per machine, the estimated cycles of the transformed code --
// showing the blocking trade-off the paper discusses: whole-superblock
// CPR maximizes height reduction on wide machines but delays exits, while
// smaller CPR blocks tolerate unbiased exits better.
//
//===----------------------------------------------------------------------===//

#include "interp/Profiler.h"
#include "pipeline/CompilerPipeline.h"
#include "support/TableFormat.h"
#include "workloads/SyntheticProgram.h"

#include <cstdio>

using namespace cpr;

namespace {

KernelProgram makeLongSuperblock(double Bias) {
  SyntheticParams SP;
  SP.Superblocks = 1;
  SP.RungsPerSuperblock = 12;
  SP.FallThroughBias = Bias;
  SP.UnbiasedFrac = 0.0;
  SP.InseparableFrac = 0.0;
  SP.ChainLen = 1;
  SP.ParallelOps = 2;
  SP.StoresPerRung = 1;
  SP.Trips = 400;
  SP.Seed = 303;
  return buildSyntheticProgram("fig3", SP);
}

void printFigure3() {
  for (double Bias : {0.99, 0.92}) {
    std::printf("Figure 3 sweep: 12-branch superblock, per-branch "
                "fall-through bias %.2f\n",
                Bias);
    TextTable T;
    T.setHeader({"max branches per CPR block", "CPR blocks", "Seq", "Nar",
                 "Med", "Wid", "Inf"});
    for (unsigned Cap : {1u, 2u, 3u, 4u, 6u, 12u}) {
      KernelProgram P = makeLongSuperblock(Bias);
      PipelineOptions Opts;
      Opts.CPR.MaxBranchesPerBlock = Cap;
      // Disable the heuristics so the cap alone controls blocking.
      Opts.CPR.ExitWeightThreshold = 2.0;
      Opts.CPR.EnableTakenVariation = false;
      PipelineResult R = runPipeline(P, Opts);
      std::vector<std::string> Row{
          std::to_string(Cap), std::to_string(R.CPR.CPRBlocksTransformed)};
      for (const char *M :
           {"sequential", "narrow", "medium", "wide", "infinite"})
        Row.push_back(TextTable::fmt(R.speedupOn(M)));
      T.addRow(Row);
    }
    std::printf("%s\n", T.render().c_str());
  }
  std::printf("(speedup over the untransformed baseline; cap 12 = whole "
              "superblock as one CPR block, cap 1 = no transformation)\n\n");
}

} // namespace

int main() {
  printFigure3();
  return 0;
}
