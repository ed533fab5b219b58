//===- tests/sim/SimPipelineTest.cpp - Pipeline simulation integration ----===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompilerPipeline.h"
#include "pipeline/PipelineRun.h"
#include "pipeline/Reports.h"
#include "workloads/BenchmarkSuite.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

PipelineOptions simOptions() {
  PipelineOptions Opts;
  Opts.Simulate = true;
  Opts.Machines = {MachineDesc::narrow(), MachineDesc::wide()};
  return Opts;
}

TEST(SimPipelineTest, SimulateFillsEveryMachinePredictorPair) {
  KernelProgram P = buildStrcpyKernel(4, 1024);
  PipelineOptions Opts = simOptions();
  PipelineResult R = runPipeline(P, Opts);

  ASSERT_EQ(R.Sim.size(), Opts.Machines.size() * Opts.Predictors.size());
  for (const SimComparison &S : R.Sim) {
    EXPECT_TRUE(S.Baseline.ok()) << S.Baseline.Error;
    EXPECT_TRUE(S.Treated.ok()) << S.Treated.Error;
    EXPECT_GT(S.Baseline.TotalCycles, 0.0);
    EXPECT_GT(S.Treated.TotalCycles, 0.0);
    EXPECT_GT(S.speedup(), 0.0);
    // The simulator replays the same runs the interpreter measured.
    EXPECT_EQ(S.Baseline.Branches, R.DynBaseline.BranchesDispatched);
    EXPECT_EQ(S.Treated.Branches, R.DynTreated.BranchesDispatched);
    EXPECT_EQ(S.Baseline.OpsDispatched, R.DynBaseline.OpsDispatched);
    EXPECT_EQ(S.Treated.OpsDispatched, R.DynTreated.OpsDispatched);
  }
}

TEST(SimPipelineTest, SimOnLooksUpPairs) {
  KernelProgram P = buildWcKernel(4, 1024);
  PipelineOptions Opts = simOptions();
  Opts.Predictors = {PredictorKind::Static, PredictorKind::Gshare};
  PipelineResult R = runPipeline(P, Opts);

  const SimComparison *S = R.simOn("wide", "gshare");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->MachineName, "wide");
  EXPECT_EQ(S->PredictorName, "gshare");
  EXPECT_EQ(R.simOn("wide", "local"), nullptr);
  EXPECT_EQ(R.simOn("infinite", "gshare"), nullptr);
}

TEST(SimPipelineTest, SimulationOffLeavesSimEmpty) {
  KernelProgram P = buildStrcpyKernel(4, 512);
  PipelineResult R = runPipeline(P);
  EXPECT_TRUE(R.Sim.empty());
  EXPECT_EQ(R.simOn("wide", "gshare"), nullptr);
}

TEST(SimPipelineTest, SharedGraphsMatchAFreshSimulation) {
  // The session simulates over its shared per-block graphs and liveness;
  // a fresh simulateTrace builds its own. Every count must agree.
  PipelineOptions Opts;
  Opts.Simulate = true;
  Opts.Predictors = {PredictorKind::TageScL};
  for (const FrontendCellConfig &FC : defaultFrontendConfigs())
    if (FC.Name == "fetch4.btb64x4")
      Opts.Frontend = FC.Frontend;
  ASSERT_TRUE(Opts.Frontend.Decoupled && Opts.Frontend.UseBTB);
  std::vector<BenchmarkSpec> Suite = paperBenchmarkSuite();
  PipelineRun Run(findBenchmark(Suite, "023.eqntott").Build(), Opts);
  Run.prepare();

  SimOptions SO;
  SO.MispredictPenalty = Opts.MispredictPenalty;
  SO.AllowSpeculation = Opts.Perf.AllowSpeculation;
  SO.Frontend = Opts.Frontend;
  auto Fresh = [&](const Function &F, const BranchTrace &T,
                   const ProfileData &Prof, const MachineDesc &MD) {
    PredictorConfig C;
    C.Profile = &Prof;
    std::unique_ptr<BranchPredictor> P =
        makePredictor(PredictorKind::TageScL, C);
    return simulateTrace(F, MD, T, *P, SO);
  };
  uint64_t Stalls = 0;
  for (const MachineDesc &MD : Opts.Machines) {
    SCOPED_TRACE(MD.getName());
    SimComparison SC = Run.simulate(MD, PredictorKind::TageScL);
    SimEstimate B = Fresh(Run.baseline(), Run.baselineTrace(),
                          Run.baselineProfile(), MD);
    SimEstimate T = Fresh(Run.treated(), Run.treatedTrace(),
                          Run.treatedProfile(), MD);
    for (const auto &[Got, Want] : {std::pair(&SC.Baseline, &B),
                                     std::pair(&SC.Treated, &T)}) {
      EXPECT_EQ(Got->TotalCycles, Want->TotalCycles);
      EXPECT_EQ(Got->Mispredicts, Want->Mispredicts);
      EXPECT_EQ(Got->FetchStallCycles, Want->FetchStallCycles);
      EXPECT_EQ(Got->BTBMisses, Want->BTBMisses);
      Stalls += Got->FetchStallCycles;
    }
  }
  EXPECT_GT(Stalls, 0u) << "the frontend model must be exercised";
}

TEST(SimPipelineTest, ZeroPenaltyStaticSimMatchesTable2Estimate) {
  // With no misprediction penalty the dynamic simulation degenerates to
  // the ExitAware static estimate, so the "Table 2-dyn" speedup must
  // equal the Table 2 speedup on every machine. Both price through one
  // pricer: this checks that the session's profile counts equal its trace
  // replay's.
  KernelProgram P = buildGrepKernel(4, 2048);
  PipelineOptions Opts = simOptions();
  Opts.Predictors = {PredictorKind::Static};
  Opts.MispredictPenalty = 0;
  PipelineResult R = runPipeline(P, Opts);

  for (const MachineComparison &M : R.Machines) {
    const SimComparison *S = R.simOn(M.MachineName, "static");
    ASSERT_NE(S, nullptr) << M.MachineName;
    EXPECT_DOUBLE_EQ(S->Baseline.TotalCycles, M.BaselineCycles);
    EXPECT_DOUBLE_EQ(S->Treated.TotalCycles, M.TreatedCycles);
  }
}

} // namespace
