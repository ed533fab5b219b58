//===- tests/pipeline/ParallelSuiteTest.cpp - Staged/parallel pipeline ----===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Determinism and staged-session tests for the PipelineRun API and the
// pool-parallel suite runner: the same work must produce byte-identical
// tables and stats counters at every thread count, and session artifacts
// must be computed once, shared, and injectable.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/PipelineRun.h"
#include "pipeline/Reports.h"
#include "support/JSON.h"
#include "support/Statistics.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace cpr;

TEST(PipelineRun, ArtifactsAreLazyCachedAndShared) {
  PipelineOptions Opts;
  Opts.Simulate = true;
  StatsRegistry Stats;
  PipelineRun Run(buildStrcpyKernel(4, 256, 1), Opts, &Stats, "s/");

  const ProfileData &Prof = Run.baselineProfile();
  EXPECT_EQ(&Prof, &Run.baselineProfile()); // computed once, cached
  EXPECT_GT(Run.baselineDynStats().OpsDispatched, 0u);
  EXPECT_GT(Run.baselineTrace().size(), 0u);

  Run.prepare();
  MachineComparison MC = Run.estimateMachine(MachineDesc::wide());
  SimComparison SC = Run.simulate(MachineDesc::wide(), PredictorKind::Gshare);
  EXPECT_GT(MC.BaselineCycles, 0.0);
  EXPECT_GT(SC.Baseline.TotalCycles, 0.0);

  PipelineResult R = Run.finish();
  ASSERT_NE(R.Treated, nullptr);
  // finish() reuses the same artifacts: its rows match the direct calls.
  EXPECT_EQ(R.speedupOn("wide"), MC.speedup());
  const SimComparison *S = R.simOn("wide", "gshare");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Baseline.TotalCycles, SC.Baseline.TotalCycles);
  EXPECT_EQ(S->Treated.Mispredicts, SC.Treated.Mispredicts);

  // Stage reporting landed under the session prefix.
  EXPECT_GT(Stats.count("s/dyn_ops_baseline"), 0.0);
  EXPECT_GT(Stats.count("s/static_ops_treated"), 0.0);
  EXPECT_GT(Stats.timeMs("s/profile_baseline"), 0.0);
}

TEST(PipelineRun, TransformPhaseTimesLandUnderTheSessionPrefix) {
  auto PhaseKeys = [](const StatsRegistry &Stats) {
    std::vector<std::string> Keys;
    for (const auto &KV : Stats.timesMs())
      if (KV.first.find("transform/") != std::string::npos)
        Keys.push_back(KV.first);
    return Keys;
  };
  StatsRegistry Stats;
  PipelineRun Run(buildStrcpyKernel(4, 256, 1), PipelineOptions(), &Stats,
                  "s/");
  ASSERT_GT(Run.cprResult().CPRBlocksTransformed, 0u)
      << "every phase must run";
  EXPECT_EQ(PhaseKeys(Stats),
            (std::vector<std::string>{
                "s/transform/dce", "s/transform/frp", "s/transform/match",
                "s/transform/motion", "s/transform/restructure",
                "s/transform/speculate"}));

  // A phase that never runs records no time.
  PipelineOptions NoSpeculation;
  NoSpeculation.CPR.EnablePredicateSpeculation = false;
  StatsRegistry Fewer;
  PipelineRun Without(buildStrcpyKernel(4, 256, 1), NoSpeculation, &Fewer,
                      "s/");
  Without.treated();
  std::vector<std::string> Keys = PhaseKeys(Fewer);
  EXPECT_EQ(std::count(Keys.begin(), Keys.end(), "s/transform/speculate"),
            0);
  EXPECT_EQ(std::count(Keys.begin(), Keys.end(), "s/transform/frp"), 1);
}

TEST(PipelineRun, BranchlessFunctionRunsNoRegionPhases) {
  // Without a branch no region has a CPR block to form: the driver counts
  // each region but runs neither FRP conversion nor speculation on it.
  KernelProgram P;
  P.Func = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  p1:un, p2:uc = cmpp.lt(r1, 5)
  r9 = mov(1) if p1
  r9 = mov(2) if p2
block @B:
  r9 = add(r9, r1)
  halt
}
)");
  std::string Before = printFunction(*P.Func);
  StatsRegistry Stats;
  PipelineRun Run(std::move(P), PipelineOptions(), &Stats, "s/");
  EXPECT_EQ(printFunction(Run.treated()), Before);
  std::vector<std::string> Keys;
  for (const auto &KV : Stats.timesMs())
    if (KV.first.find("transform/") != std::string::npos)
      Keys.push_back(KV.first);
  EXPECT_EQ(Keys, std::vector<std::string>{"s/transform/dce"});
  EXPECT_EQ(Stats.count("s/cpr/regions"), 2.0);
  EXPECT_EQ(Stats.count("s/cpr/blocks_formed"), 0.0);
  EXPECT_EQ(Stats.count("s/cpr/liveness_solves"), 1.0);
  EXPECT_EQ(Stats.count("s/cpr/liveness_partial_solves"), 0.0);
}

TEST(PipelineRun, InjectedTreatedSkipsTransform) {
  KernelProgram P = buildStrcpyKernel(4, 256, 1);
  std::unique_ptr<Function> Identical = P.Func->clone();
  PipelineRun Run(std::move(P));
  Run.setTreated(std::move(Identical));
  Run.checkEquivalence(); // identical program: trivially equivalent
  EXPECT_EQ(Run.cprResult().CPRBlocksTransformed, 0u);
  PipelineResult R = Run.finish();
  for (const MachineComparison &M : R.Machines) {
    EXPECT_GT(M.BaselineCycles, 0.0);
    EXPECT_DOUBLE_EQ(M.speedup(), 1.0);
  }
}

TEST(PipelineRun, InjectedProfileMatchesMeasuredProfile) {
  PipelineRun Measured(buildStrcpyKernel(4, 256, 1));
  ProfileData Copy = Measured.baselineProfile();
  MachineComparison Want = [&] {
    Measured.prepare();
    return Measured.estimateMachine(MachineDesc::wide());
  }();

  PipelineRun Injected(buildStrcpyKernel(4, 256, 1));
  Injected.setBaselineProfile(std::move(Copy));
  Injected.prepare();
  MachineComparison Got = Injected.estimateMachine(MachineDesc::wide());
  EXPECT_EQ(Got.BaselineCycles, Want.BaselineCycles);
  EXPECT_EQ(Got.TreatedCycles, Want.TreatedCycles);
}

TEST(RunPipeline, ThreadedRunMatchesSerialRun) {
  PipelineOptions Serial;
  Serial.Simulate = true;
  PipelineResult A = runPipeline(buildWcKernel(4, 2048, 66), Serial);

  PipelineOptions Threaded = Serial;
  Threaded.Threads = 4;
  PipelineResult B = runPipeline(buildWcKernel(4, 2048, 66), Threaded);

  ASSERT_EQ(A.Machines.size(), B.Machines.size());
  for (size_t I = 0; I < A.Machines.size(); ++I) {
    EXPECT_EQ(A.Machines[I].MachineName, B.Machines[I].MachineName);
    EXPECT_EQ(A.Machines[I].BaselineCycles, B.Machines[I].BaselineCycles);
    EXPECT_EQ(A.Machines[I].TreatedCycles, B.Machines[I].TreatedCycles);
  }
  ASSERT_EQ(A.Sim.size(), B.Sim.size());
  for (size_t I = 0; I < A.Sim.size(); ++I) {
    EXPECT_EQ(A.Sim[I].MachineName, B.Sim[I].MachineName);
    EXPECT_EQ(A.Sim[I].PredictorName, B.Sim[I].PredictorName);
    EXPECT_EQ(A.Sim[I].Baseline.TotalCycles, B.Sim[I].Baseline.TotalCycles);
    EXPECT_EQ(A.Sim[I].Treated.Mispredicts, B.Sim[I].Treated.Mispredicts);
  }
}

TEST(RunSuite, ParallelSuiteIsByteIdenticalToSerial) {
  PipelineOptions SerialOpts;
  SerialOpts.Threads = 1;
  StatsRegistry SerialStats;
  SerialOpts.Stats = &SerialStats;
  std::vector<SuiteRow> Serial = runSuite(SerialOpts);

  PipelineOptions PoolOpts;
  PoolOpts.Threads = 8;
  StatsRegistry PoolStats;
  PoolOpts.Stats = &PoolStats;
  std::vector<SuiteRow> Pooled = runSuite(PoolOpts);

  // Rendered reports are byte-identical at every thread count.
  EXPECT_EQ(renderTable2(Serial), renderTable2(Pooled));
  EXPECT_EQ(renderTable3(Serial), renderTable3(Pooled));

  // So is the deterministic (counters-only) stats document.
  EXPECT_EQ(SerialStats.toJSONText(false), PoolStats.toJSONText(false));
  EXPECT_FALSE(SerialStats.counters().empty());

  // The full document -- wall times included -- round-trips through the
  // strict parser with the expected schema tag.
  JSONParseResult P = parseJSON(PoolStats.toJSONText(true));
  ASSERT_TRUE(static_cast<bool>(P)) << P.Error;
  const JSONValue *Schema = P.Value.find("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->getString(), "cpr-stats-v1.3");
  const JSONValue *Counters = P.Value.find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->members().size(), SerialStats.counters().size());
  ASSERT_NE(P.Value.find("times_ms"), nullptr);
}
