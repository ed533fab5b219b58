//===- bench/bench_ablation_thresholds.cpp - Heuristic ablation -----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Ablation A2 (DESIGN.md): Section 7 of the paper attributes some of its
// sequential/narrow losses to "a single set of CPR block selection
// heuristics for all the processors", tuned for the medium machine. This
// bench sweeps the exit-weight and predict-taken thresholds and reports
// the geometric-mean speedup over a representative subset of the suite on
// each machine, exposing the tuning surface the paper describes as
// immature.
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompilerPipeline.h"
#include "support/Statistics.h"
#include "support/TableFormat.h"
#include "workloads/BenchmarkSuite.h"

#include <cstdio>

using namespace cpr;

namespace {

const char *SubsetNames[] = {"strcpy", "wc",        "grep",
                             "126.gcc", "022.li",   "023.eqntott",
                             "099.go",  "134.perl"};

std::vector<double> gmeansAcrossSubset(const CPROptions &CPR) {
  std::vector<BenchmarkSpec> Suite = paperBenchmarkSuite();
  std::vector<std::vector<double>> Cols(5);
  for (const char *Name : SubsetNames) {
    KernelProgram P = findBenchmark(Suite, Name).Build();
    PipelineOptions Opts;
    Opts.CPR = CPR;
    PipelineResult R = runPipeline(P, Opts);
    for (size_t M = 0; M < 5; ++M)
      Cols[M].push_back(R.Machines[M].speedup());
  }
  std::vector<double> G;
  for (size_t M = 0; M < 5; ++M)
    G.push_back(geometricMean(Cols[M]));
  return G;
}

void printAblation() {
  std::printf("Exit-weight threshold sweep (predict-taken fixed at "
              "0.60):\n");
  {
    TextTable T;
    T.setHeader({"exit-weight", "Seq", "Nar", "Med", "Wid", "Inf"});
    for (double W : {0.05, 0.10, 0.20, 0.35, 0.60, 1.00}) {
      CPROptions CPR;
      CPR.ExitWeightThreshold = W;
      std::vector<double> G = gmeansAcrossSubset(CPR);
      std::vector<std::string> Row{TextTable::fmt(W)};
      for (double V : G)
        Row.push_back(TextTable::fmt(V));
      T.addRow(Row);
    }
    std::printf("%s\n", T.render().c_str());
  }

  std::printf("Predict-taken threshold sweep (exit-weight fixed at "
              "0.20):\n");
  {
    TextTable T;
    T.setHeader({"predict-taken", "Seq", "Nar", "Med", "Wid", "Inf"});
    for (double W : {0.40, 0.60, 0.80, 0.95}) {
      CPROptions CPR;
      CPR.PredictTakenThreshold = W;
      std::vector<double> G = gmeansAcrossSubset(CPR);
      std::vector<std::string> Row{TextTable::fmt(W)};
      for (double V : G)
        Row.push_back(TextTable::fmt(V));
      T.addRow(Row);
    }
    std::printf("%s\n", T.render().c_str());
  }
  std::printf("(gmean over %zu benchmarks; one heuristic setting serves "
              "all machines, as in the paper)\n\n",
              std::size(SubsetNames));
}

} // namespace

int main() {
  printAblation();
  return 0;
}
