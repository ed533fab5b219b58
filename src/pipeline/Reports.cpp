//===- pipeline/Reports.cpp - Suite-level report rendering -----------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Reports.h"

#include "pipeline/PipelineRun.h"
#include "support/Statistics.h"
#include "support/TableFormat.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <memory>

using namespace cpr;

std::vector<SuiteRow> cpr::runSuite(const PipelineOptions &Opts) {
  std::vector<BenchmarkSpec> Suite = paperBenchmarkSuite();
  std::vector<SuiteRow> Rows(Suite.size());

  // Each benchmark is one task: its session runs serially inside the
  // task (coarse-grained work keeps the pool saturated with 24 rows) and
  // reports into a per-row registry. Rows land in preallocated slots and
  // registries merge in suite order, so tables and stats are identical
  // at every thread count.
  PipelineOptions TaskOpts = Opts;
  TaskOpts.Threads = 1;
  TaskOpts.Stats = nullptr;
  std::vector<StatsRegistry> RowStats(Opts.Stats ? Suite.size() : 0);

  auto RunOne = [&](size_t I) {
    KernelProgram P = Suite[I].Build();
    PipelineRun Run(std::move(P), TaskOpts,
                    Opts.Stats ? &RowStats[I] : nullptr,
                    Suite[I].Name + "/");
    Rows[I].Name = Suite[I].Name;
    Rows[I].InSpec95Mean = Suite[I].InSpec95Mean;
    Rows[I].Result = Run.finish();
  };

  if (Opts.Threads != 1) {
    ThreadPool Pool(Opts.Threads);
    parallelFor(&Pool, Suite.size(), RunOne);
  } else {
    for (size_t I = 0; I < Suite.size(); ++I)
      RunOne(I);
  }

  if (Opts.Stats)
    for (const StatsRegistry &R : RowStats)
      Opts.Stats->mergeFrom(R);
  return Rows;
}

std::string cpr::renderTable2(const std::vector<SuiteRow> &Rows) {
  if (Rows.empty())
    return "";
  const std::vector<MachineComparison> &Machines = Rows[0].Result.Machines;

  TextTable T;
  std::vector<std::string> Header{"Benchmark"};
  for (const MachineComparison &M : Machines)
    Header.push_back(M.MachineName.substr(0, 3));
  T.setHeader(Header);

  size_t NumM = Machines.size();
  std::vector<std::vector<double>> All(NumM), Spec95(NumM);
  for (const SuiteRow &Row : Rows) {
    std::vector<std::string> Cells{Row.Name};
    for (size_t M = 0; M < NumM; ++M) {
      double S = Row.Result.Machines[M].speedup();
      Cells.push_back(TextTable::fmt(S));
      All[M].push_back(S);
      if (Row.InSpec95Mean)
        Spec95[M].push_back(S);
    }
    T.addRow(Cells);
  }
  T.addSeparator();
  std::vector<std::string> GS{"Gmean-spec95"}, GA{"Gmean-all"};
  for (size_t M = 0; M < NumM; ++M) {
    GS.push_back(TextTable::fmt(geometricMean(Spec95[M])));
    GA.push_back(TextTable::fmt(geometricMean(All[M])));
  }
  T.addRow(GS);
  T.addRow(GA);
  return T.render();
}

std::vector<FrontendCellConfig> cpr::defaultFrontendConfigs() {
  std::vector<FrontendCellConfig> Configs(2);
  Configs[0].Name = "flat";
  Configs[1].Name = "fetch4.btb64x4";
  Configs[1].Frontend.Decoupled = true;
  Configs[1].Frontend.FetchWidth = 4;
  Configs[1].Frontend.UseBTB = true;
  Configs[1].Frontend.BTB.SetBits = 6;
  Configs[1].Frontend.BTB.Ways = 4;
  return Configs;
}

FrontendSweepResult cpr::runFrontendSweep(const FrontendSweepOptions &Opts) {
  std::vector<BenchmarkSpec> Suite = paperBenchmarkSuite();
  if (Opts.MaxWorkloads != 0 && Suite.size() > Opts.MaxWorkloads)
    Suite.resize(Opts.MaxWorkloads);

  FrontendSweepResult Res;
  for (const BenchmarkSpec &S : Suite)
    Res.Workloads.push_back(S.Name);

  size_t PerWorkload =
      Opts.Machines.size() * Opts.Predictors.size() * Opts.Frontends.size();
  Res.Cells.resize(Suite.size() * PerWorkload);

  // One task per workload, like runSuite: the session's serial stages run
  // once and every cell of the workload reuses them. Cells land in
  // preallocated slots and per-row registries merge in suite order, so
  // the result is byte-identical at every thread count.
  PipelineOptions TaskOpts;
  TaskOpts.Simulate = true;
  TaskOpts.Machines = Opts.Machines;
  TaskOpts.Predictors = Opts.Predictors;
  std::vector<StatsRegistry> RowStats(Opts.Stats ? Suite.size() : 0);

  auto RunOne = [&](size_t I) {
    KernelProgram P = Suite[I].Build();
    PipelineRun Run(std::move(P), TaskOpts,
                    Opts.Stats ? &RowStats[I] : nullptr,
                    Suite[I].Name + "/");
    Run.prepare();
    size_t Cell = I * PerWorkload;
    for (const MachineDesc &MD : Opts.Machines)
      for (PredictorKind K : Opts.Predictors)
        for (const FrontendCellConfig &FC : Opts.Frontends) {
          FrontendCell &C = Res.Cells[Cell++];
          C.Workload = Suite[I].Name;
          C.Machine = MD.getName();
          C.Predictor = predictorKindName(K);
          C.Frontend = FC.Name;
          C.Sim = Run.simulate(MD, K, FC.Frontend, FC.Name);
        }
  };

  if (Opts.Threads != 1) {
    ThreadPool Pool(Opts.Threads);
    parallelFor(&Pool, Suite.size(), RunOne);
  } else {
    for (size_t I = 0; I < Suite.size(); ++I)
      RunOne(I);
  }

  if (Opts.Stats)
    for (const StatsRegistry &R : RowStats)
      Opts.Stats->mergeFrom(R);
  return Res;
}

namespace {

/// Distinct values of \p Get over \p Cells, in first-seen order.
template <typename GetFn>
std::vector<std::string> distinctValues(const std::vector<FrontendCell> &Cells,
                                        GetFn Get) {
  std::vector<std::string> Out;
  for (const FrontendCell &C : Cells)
    if (std::find(Out.begin(), Out.end(), Get(C)) == Out.end())
      Out.push_back(Get(C));
  return Out;
}

const FrontendCell *findCell(const FrontendSweepResult &R,
                             const std::string &W, const std::string &M,
                             const std::string &P, const std::string &F) {
  for (const FrontendCell &C : R.Cells)
    if (C.Workload == W && C.Machine == M && C.Predictor == P &&
        C.Frontend == F)
      return &C;
  return nullptr;
}

} // namespace

std::string cpr::renderFrontendSweep(const FrontendSweepResult &R) {
  if (R.Cells.empty())
    return "";
  std::vector<std::string> Machines =
      distinctValues(R.Cells, [](const FrontendCell &C) { return C.Machine; });
  std::vector<std::string> Predictors = distinctValues(
      R.Cells, [](const FrontendCell &C) { return C.Predictor; });
  std::vector<std::string> Frontends = distinctValues(
      R.Cells, [](const FrontendCell &C) { return C.Frontend; });

  std::string Out;
  for (const std::string &F : Frontends)
    for (const std::string &P : Predictors) {
      TextTable T;
      std::vector<std::string> Header{"Benchmark"};
      for (const std::string &M : Machines)
        Header.push_back(M.substr(0, 3));
      T.setHeader(Header);

      std::vector<std::vector<double>> All(Machines.size());
      for (const std::string &W : R.Workloads) {
        std::vector<std::string> Cells{W};
        for (size_t M = 0; M < Machines.size(); ++M) {
          const FrontendCell *C = findCell(R, W, Machines[M], P, F);
          double Speedup = C ? C->Sim.speedup() : 0.0;
          Cells.push_back(TextTable::fmt(Speedup));
          All[M].push_back(Speedup);
        }
        T.addRow(Cells);
      }
      T.addSeparator();
      std::vector<std::string> GA{"Gmean-all"};
      for (size_t M = 0; M < Machines.size(); ++M)
        GA.push_back(TextTable::fmt(geometricMean(All[M])));
      T.addRow(GA);

      Out += "Table 2-dyn (" + P + " predictor, " + F + " frontend):\n" +
             T.render() + "\n";
    }
  return Out;
}

std::string cpr::renderFrontendDetail(const FrontendSweepResult &R) {
  if (R.Cells.empty())
    return "";
  std::vector<std::string> Machines =
      distinctValues(R.Cells, [](const FrontendCell &C) { return C.Machine; });
  std::vector<std::string> Predictors = distinctValues(
      R.Cells, [](const FrontendCell &C) { return C.Predictor; });
  std::vector<std::string> Frontends = distinctValues(
      R.Cells, [](const FrontendCell &C) { return C.Frontend; });
  const std::string &M = Machines.back();
  const std::string &P = Predictors.back();

  std::string Out;
  for (const std::string &F : Frontends) {
    TextTable T;
    T.setHeader({"Benchmark", "MPKI b>c", "BTB-MPKI b>c", "stalls b>c"});
    for (const std::string &W : R.Workloads) {
      const FrontendCell *C = findCell(R, W, M, P, F);
      if (!C) {
        T.addRow({W, "-", "-", "-"});
        continue;
      }
      T.addRow({W,
                TextTable::fmt(C->Sim.Baseline.mpki()) + ">" +
                    TextTable::fmt(C->Sim.Treated.mpki()),
                TextTable::fmt(C->Sim.Baseline.btbMpki()) + ">" +
                    TextTable::fmt(C->Sim.Treated.btbMpki()),
                std::to_string(C->Sim.Baseline.FetchStallCycles) + ">" +
                    std::to_string(C->Sim.Treated.FetchStallCycles)});
    }
    Out += "Frontend detail (" + F + " frontend, " + M + " machine, " + P +
           " predictor):\n" + T.render() + "\n";
  }
  return Out;
}

std::string cpr::renderTable3(const std::vector<SuiteRow> &Rows) {
  TextTable T;
  T.setHeader({"Benchmark", "S tot", "S br", "D tot", "D br"});
  std::vector<std::vector<double>> All(4), Spec95(4);
  for (const SuiteRow &Row : Rows) {
    const PipelineResult &R = Row.Result;
    double Vals[4] = {R.staticOpRatio(), R.staticBranchRatio(),
                      R.dynOpRatio(), R.dynBranchRatio()};
    std::vector<std::string> Cells{Row.Name};
    for (int C = 0; C < 4; ++C) {
      Cells.push_back(TextTable::fmt(Vals[C]));
      All[static_cast<size_t>(C)].push_back(Vals[C]);
      if (Row.InSpec95Mean)
        Spec95[static_cast<size_t>(C)].push_back(Vals[C]);
    }
    T.addRow(Cells);
  }
  T.addSeparator();
  std::vector<std::string> GS{"Gmean-spec95"}, GA{"Gmean-all"};
  for (int C = 0; C < 4; ++C) {
    GS.push_back(TextTable::fmt(geometricMean(Spec95[static_cast<size_t>(C)])));
    GA.push_back(TextTable::fmt(geometricMean(All[static_cast<size_t>(C)])));
  }
  T.addRow(GS);
  T.addRow(GA);
  return T.render();
}
