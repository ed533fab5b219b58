//===- bench/bench_ablation_fullcpr.cpp - ICBM vs full CPR ----------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Ablation A4: Section 4 of the paper positions ICBM against "full CPR"
// [SK95], which accelerates *all* paths at the cost of quadratic compare
// growth: "the use of profile data allows us to expedite some program
// paths at the expense of others; ICBM reduces code growth by
// accelerating only a single, statically predicted, program path...
// Thus, ICBM is attractive for processors with limited parallelism.
// Approaches that accelerate multiple paths can further improve
// performance for highly parallel processors or where static prediction
// is difficult."
//
// This bench implements that comparison: baseline vs ICBM vs full CPR on
// each machine model, plus the dynamic-operation ratios that expose full
// CPR's redundant execution.
//
//===----------------------------------------------------------------------===//

#include "cpr/FullCPR.h"
#include "support/Error.h"
#include "interp/Profiler.h"
#include "pipeline/CompilerPipeline.h"
#include "regions/DeadCodeElim.h"
#include "support/Statistics.h"
#include "support/TableFormat.h"
#include "workloads/BenchmarkSuite.h"

#include <cstdio>

using namespace cpr;

namespace {

struct Variant {
  double Speedup[5];
  double DynOps;
};

Variant measure(const KernelProgram &P, const Function &Baseline,
                const Function &Treated, const ProfileData &BaseProfile,
                const DynStats &BaseStats) {
  Variant V;
  Memory Mem = P.InitMem;
  DynStats TreatedStats;
  ProfileData TreatedProfile =
      profileRun(Treated, Mem, P.InitRegs, &TreatedStats);
  std::vector<MachineDesc> Machines = MachineDesc::paperModels();
  for (size_t M = 0; M < 5; ++M) {
    double Before =
        estimatePerformance(Baseline, Machines[M], BaseProfile).TotalCycles;
    double After = estimatePerformance(Treated, Machines[M], TreatedProfile)
                       .TotalCycles;
    V.Speedup[M] = After > 0 ? Before / After : 0.0;
  }
  V.DynOps = static_cast<double>(TreatedStats.OpsDispatched) /
             static_cast<double>(BaseStats.OpsDispatched);
  return V;
}

void printComparison() {
  const char *Names[] = {"strcpy", "grep", "wc",       "126.gcc",
                         "022.li", "099.go", "023.eqntott"};
  std::vector<BenchmarkSpec> Suite = paperBenchmarkSuite();

  TextTable T;
  T.setHeader({"Benchmark", "variant", "Seq", "Nar", "Med", "Wid", "Inf",
               "dyn ops"});
  std::vector<double> IcbmMed, FullMed, IcbmInf, FullInf;
  for (const char *Name : Names) {
    KernelProgram P = findBenchmark(Suite, Name).Build();
    const Function &Baseline = *P.Func;
    Memory Mem = P.InitMem;
    DynStats BaseStats;
    ProfileData Prof = profileRun(Baseline, Mem, P.InitRegs, &BaseStats);

    // ICBM.
    std::unique_ptr<Function> Icbm =
        applyControlCPR(Baseline, Prof, CPROptions());
    Variant VI = measure(P, Baseline, *Icbm, Prof, BaseStats);

    // Full CPR (profile-free; DCE strips dead original predicates).
    std::unique_ptr<Function> Full = Baseline.clone();
    runFullCPR(*Full);
    eliminateDeadCode(*Full);
    EquivResult E = checkEquivalence(Baseline, *Full, P.InitMem, P.InitRegs);
    if (!E.Equivalent)
      reportFatalError("full CPR broke " + std::string(Name) + ": " +
                       E.Detail);
    Variant VF = measure(P, Baseline, *Full, Prof, BaseStats);

    for (int K = 0; K < 2; ++K) {
      const Variant &V = K ? VF : VI;
      std::vector<std::string> Row{K == 0 ? Name : "",
                                   K == 0 ? "ICBM" : "full CPR"};
      for (double S : V.Speedup)
        Row.push_back(TextTable::fmt(S));
      Row.push_back(TextTable::fmt(V.DynOps));
      T.addRow(Row);
    }
    IcbmMed.push_back(VI.Speedup[2]);
    FullMed.push_back(VF.Speedup[2]);
    IcbmInf.push_back(VI.Speedup[4]);
    FullInf.push_back(VF.Speedup[4]);
  }
  T.addSeparator();
  T.addRow({"Gmean", "ICBM", "", "", TextTable::fmt(geometricMean(IcbmMed)),
            "", TextTable::fmt(geometricMean(IcbmInf)), ""});
  T.addRow({"", "full CPR", "", "", TextTable::fmt(geometricMean(FullMed)),
            "", TextTable::fmt(geometricMean(FullInf)), ""});
  std::printf("ICBM vs full CPR [SK95] (paper Section 4: redundant "
              "all-paths acceleration vs irredundant single-path)\n\n%s\n",
              T.render().c_str());
  std::printf("(dyn ops: dynamic operations relative to baseline; full "
              "CPR's redundant compares execute on every path)\n\n");
}

} // namespace

int main() {
  printComparison();
  return 0;
}
