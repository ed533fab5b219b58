//===- bench/bench_ablation_speculation.cpp - Speculation ablation --------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Ablation A3 (DESIGN.md): Section 5.1 of the paper states that without
// predicate speculation, "separability systematically fails at almost
// every basic block" of FRP-converted code. This bench runs the suite
// subset with the speculation phase disabled and reports how many CPR
// blocks still form, how many branches they cover, and the resulting
// speedups -- quantifying the phase's enabling role.
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
  const char *Names[] = {"strcpy", "wc",    "grep",     "lex",
                         "yacc",   "cccp",  "126.gcc",  "022.li",
                         "072.sc", "134.perl"};
  std::vector<BenchmarkSpec> Suite = paperBenchmarkSuite();

  TextTable T;
  T.setHeader({"Benchmark", "branches covered (spec on)",
               "branches covered (spec off)", "Med speedup (on)",
               "Med speedup (off)"});
  std::vector<double> OnMed, OffMed;
  for (const char *Name : Names) {
    PipelineOptions On;
    PipelineOptions Off;
    Off.CPR.EnablePredicateSpeculation = false;

    KernelProgram P1 = findBenchmark(Suite, Name).Build();
    PipelineResult ROn = runPipeline(P1, On);
    KernelProgram P2 = findBenchmark(Suite, Name).Build();
    PipelineResult ROff = runPipeline(P2, Off);

    T.addRow({Name, std::to_string(ROn.CPR.BranchesCovered),
              std::to_string(ROff.CPR.BranchesCovered),
              TextTable::fmt(ROn.speedupOn("medium")),
              TextTable::fmt(ROff.speedupOn("medium"))});
    OnMed.push_back(ROn.speedupOn("medium"));
    OffMed.push_back(ROff.speedupOn("medium"));
  }
  T.addSeparator();
  T.addRow({"Gmean", "", "", TextTable::fmt(geometricMean(OnMed)),
            TextTable::fmt(geometricMean(OffMed))});
  std::printf("Predicate speculation ablation (paper Section 5.1: without "
              "it, separability fails at almost every block of "
              "FRP-converted code)\n\n%s\n",
              T.render().c_str());
}

} // namespace

int main() {
  printAblation();
  return 0;
}
