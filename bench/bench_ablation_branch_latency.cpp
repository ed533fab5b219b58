//===- bench/bench_ablation_branch_latency.cpp - Latency ablation ---------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Ablation A1 (DESIGN.md): the paper motivates control CPR partly by
// *exposed branch latency* -- EPIC branch units without prediction
// hardware take effect at a visible latency, so chains of dependent
// branches cost latency x chain length. This bench sweeps the branch
// latency from 1 (the paper's Table 2 setting) to 3 and reports the ICBM
// speedup on each machine model for a representative subset of the suite:
// the benefit of collapsing n branches into one grows with the exposed
// latency.
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompilerPipeline.h"
#include "support/Statistics.h"
#include "support/TableFormat.h"
#include "workloads/BenchmarkSuite.h"

#include <cstdio>

using namespace cpr;

namespace {

void printAblation() {
  const char *Names[] = {"strcpy", "wc", "grep", "126.gcc", "147.vortex",
                         "023.eqntott"};
  std::vector<BenchmarkSpec> Suite = paperBenchmarkSuite();

  for (int Lat : {1, 2, 3}) {
    std::printf("Branch latency %d:\n", Lat);
    TextTable T;
    T.setHeader({"Benchmark", "Seq", "Nar", "Med", "Wid", "Inf"});
    std::vector<std::vector<double>> Cols(5);
    for (const char *Name : Names) {
      KernelProgram P = findBenchmark(Suite, Name).Build();
      PipelineOptions Opts;
      Opts.Machines = MachineDesc::paperModels(Lat);
      PipelineResult R = runPipeline(P, Opts);
      std::vector<std::string> Row{Name};
      for (size_t M = 0; M < 5; ++M) {
        double S = R.Machines[M].speedup();
        Row.push_back(TextTable::fmt(S));
        Cols[M].push_back(S);
      }
      T.addRow(Row);
    }
    T.addSeparator();
    std::vector<std::string> G{"Gmean"};
    for (size_t M = 0; M < 5; ++M)
      G.push_back(TextTable::fmt(geometricMean(Cols[M])));
    T.addRow(G);
    std::printf("%s\n", T.render().c_str());
  }
  std::printf("(ICBM speedup grows with exposed branch latency: each "
              "collapsed branch saves Lat cycles of dependence height)\n\n");
}

} // namespace

int main() {
  printAblation();
  return 0;
}
