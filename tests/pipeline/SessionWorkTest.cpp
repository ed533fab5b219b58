//===- tests/pipeline/SessionWorkTest.cpp - Each session works once -------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// A session interprets each side once, builds one dependence graph per
// block per side for all machines of one branch latency, and replays each
// side's trace once per predictor for all machines:
//
//  - OracleParity: the session's oracle, which reuses the profiling runs'
//    final states, returns exactly what cpr::checkEquivalence returns --
//    verdict, divergence kind and detail, byte for byte -- on the paper
//    suite, the benchmark ladder (including its two known miscompiles),
//    generated programs and the planted compensation defect, in strict and
//    fail-safe sessions, with an injected treated function, an injected
//    baseline profile and a step cap both runs just fit under.
//  - SessionWork: the "interp/runs", "estimate/depgraphs_built" and
//    "sim/replays" counters, and the one step cap every run of a session
//    is held to.
//  - PipelineSharedGraphs: finish() on eight threads reads one graph set
//    per side concurrently and matches the serial session.
//  - PipelineSharedReplays: finish() on eight threads races for each
//    side's replay slots and matches the serial session.
//
//===----------------------------------------------------------------------===//

#include "pipeline/PipelineRun.h"

#include "analysis/AnalysisCache.h"
#include "analysis/ProfileIO.h"
#include "fuzz/Generator.h"
#include "ir/IRParser.h"
#include "pipeline/Reports.h"
#include "support/FaultInjector.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "workloads/BenchmarkSuite.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace cpr;

namespace {

size_t nonEmptyBlocks(const Function &F) {
  size_t N = 0;
  for (size_t I = 0; I < F.numBlocks(); ++I)
    N += !F.block(I).empty();
  return N;
}

/// The blocks an estimate under \p Profile schedules.
size_t enteredNonEmptyBlocks(const Function &F, const ProfileData &Profile) {
  size_t N = 0;
  for (size_t I = 0; I < F.numBlocks(); ++I)
    N += !F.block(I).empty() &&
         Profile.blockEntries(F.block(I).getId()) != 0;
  return N;
}

std::vector<KernelProgram> suitePrograms() {
  std::vector<KernelProgram> Out;
  for (const BenchmarkSpec &S : paperBenchmarkSuite())
    Out.push_back(S.Build());
  return Out;
}

/// The benchmark's ladder: seeds 1000 and 1008 at 120/12 are known
/// miscompiles.
std::vector<KernelProgram> ladderPrograms() {
  struct Rung {
    unsigned MaxBlocks, MaxItems;
    std::vector<uint64_t> Seeds;
  };
  std::vector<KernelProgram> Out;
  for (const Rung &R : {Rung{80, 8, {1000, 1002, 1003}},
                        Rung{120, 12, {1000, 1008, 1001}}}) {
    GeneratorConfig GC;
    GC.MaxBlocks = R.MaxBlocks;
    GC.MaxItemsPerRegion = R.MaxItems;
    GC.SyntheticFrac = 0.0;
    for (uint64_t Seed : R.Seeds)
      Out.push_back(generateProgram(Seed, GC));
  }
  return Out;
}

std::vector<KernelProgram> generatedPrograms() {
  std::vector<KernelProgram> Out;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    Out.push_back(generateProgram(Seed, GeneratorConfig()));
  return Out;
}

enum class Mode { Strict, FailSafe, InjectedTreated, InjectedProfile, Budget };

const char *modeName(Mode M) {
  switch (M) {
  case Mode::Strict:
    return "strict";
  case Mode::FailSafe:
    return "fail-safe";
  case Mode::InjectedTreated:
    return "injected-treated";
  case Mode::InjectedProfile:
    return "injected-profile";
  case Mode::Budget:
    return "budget";
  }
  return "?";
}

struct ParityTally {
  unsigned Sessions = 0;
  unsigned Mismatches = 0;
  unsigned MemoryMismatches = 0;
};

/// One session of \p P in mode \p M: its oracle must equal a fresh
/// checkEquivalence of the session's own baseline and treated functions
/// under the session's step cap, and a treated profile the oracle produced
/// must equal a fresh profiling run of the treated function.
void checkParity(const KernelProgram &P, Mode M, ParityTally &T) {
  SCOPED_TRACE(std::string(modeName(M)) + " @" + P.Func->getName());
  PipelineOptions Opts;
  Opts.FailSafe = M == Mode::FailSafe || M == Mode::InjectedProfile;
  Opts.Simulate = M == Mode::FailSafe;
  if (M == Mode::Budget) {
    // The longer run's length: both sides halt within the cap, one of
    // them exactly at it. (A treated run the cap stops is
    // SessionWork.FinalOracleComparesTheCappedTreatedRun's case.)
    PipelineRun Source(P.clone());
    Memory BaseMem = P.InitMem, TreatedMem = P.InitMem;
    Opts.InterpMaxSteps =
        std::max(interpret(*P.Func, BaseMem, P.InitRegs).Steps,
                 interpret(Source.treated(), TreatedMem, P.InitRegs).Steps);
  }
  PipelineRun Run(P.clone(), Opts);
  if (M == Mode::InjectedTreated) {
    // Another session's output, injected: the session runs no transform.
    PipelineRun Source(P.clone());
    Run.setTreated(Source.treated().clone());
  }
  if (M == Mode::InjectedProfile) {
    Memory Mem = P.InitMem;
    Run.setBaselineProfile(profileRun(*P.Func, Mem, P.InitRegs));
  }

  const EquivResult &Got = Run.checkEquivalenceResult();
  EquivResult Want = checkEquivalence(Run.baseline(), Run.treated(),
                                      P.InitMem, P.InitRegs,
                                      Opts.InterpMaxSteps);
  EXPECT_EQ(Got.Equivalent, Want.Equivalent);
  EXPECT_EQ(Got.Kind, Want.Kind);
  EXPECT_EQ(Got.Detail, Want.Detail);
  ++T.Sessions;
  if (!Want.Equivalent) {
    ++T.Mismatches;
    T.MemoryMismatches += Want.Kind == EquivResult::Divergence::Memory;
  }

  // The oracle's treated run doubles as the profiling run.
  Memory Mem = P.InitMem;
  RunResult R;
  BranchTrace FreshTrace;
  Expected<ProfileData> Fresh =
      tryProfileRun(Run.treated(), Mem, P.InitRegs, &R,
                    Opts.Simulate ? &FreshTrace : nullptr,
                    Opts.InterpMaxSteps);
  if (!Fresh)
    return; // nothing to profile; the oracle reported the exit path
  EXPECT_EQ(serializeProfile(Run.treatedProfile(), Run.treated()),
            serializeProfile(*Fresh, Run.treated()));
  EXPECT_EQ(Run.treatedDynStats().OpsDispatched, R.Stats.OpsDispatched);
  if (Opts.Simulate) {
    EXPECT_EQ(serializeBranchTrace(Run.treatedTrace()),
              serializeBranchTrace(FreshTrace));
  }
}

void checkParityAllModes(const std::vector<KernelProgram> &Programs,
                         ParityTally &T) {
  for (const KernelProgram &P : Programs)
    for (Mode M : {Mode::Strict, Mode::FailSafe, Mode::InjectedTreated,
                   Mode::InjectedProfile, Mode::Budget})
      checkParity(P, M, T);
}

TEST(OracleParity, SuitePrograms) {
  ParityTally T;
  checkParityAllModes(suitePrograms(), T);
  EXPECT_EQ(T.Sessions, 24u * 5u);
  EXPECT_EQ(T.Mismatches, 0u);
}

TEST(OracleParity, LadderProgramsIncludingTheKnownMiscompiles) {
  ParityTally T;
  checkParityAllModes(ladderPrograms(), T);
  // 120/12 seed 1000 diverges in memory (the cold path names the stores)
  // and seed 1008 in a register, in every mode.
  EXPECT_GE(T.Mismatches, 2u * 5u);
  EXPECT_GE(T.MemoryMismatches, 5u);
}

TEST(OracleParity, GeneratedPrograms) {
  ParityTally T;
  checkParityAllModes(generatedPrograms(), T);
  EXPECT_EQ(T.Sessions, 12u * 5u);
}

TEST(OracleParity, PlantedCompensationDefect) {
  // Every fall-through CPR block skips its compensation copies: a
  // verifier-clean miscompile only the oracle sees. The treated run traps
  // in the compensation canary, so it is no profiling run, and the oracle
  // still reports the exit path.
  fault::ScopedFault Armed("cpr.restructure.compensation", fault::EveryHit);
  ParityTally T;
  checkParityAllModes(generatedPrograms(), T);
  EXPECT_GE(T.Mismatches, 5u);
}

TEST(SessionWork, StrictSuiteSessionRunsTheInterpreterTwice) {
  for (const BenchmarkSpec &S : paperBenchmarkSuite()) {
    SCOPED_TRACE(S.Name);
    StatsRegistry Stats;
    PipelineOptions Opts; // strict, with the oracle
    PipelineRun Run(S.Build(), Opts, &Stats, "s/");
    PipelineResult R = Run.finish();
    // One profiling run per side; the oracle compares their final states.
    EXPECT_EQ(Stats.count("s/interp/runs"), 2.0);
  }
}

TEST(SessionWork, CompensationCoverageCountsTheTreatedProfile) {
  double Blocks = 0, Entered = 0;
  for (const BenchmarkSpec &S : paperBenchmarkSuite()) {
    SCOPED_TRACE(S.Name);
    StatsRegistry Stats;
    PipelineRun Run(S.Build(), PipelineOptions(), &Stats, "s/");
    Run.prepare();
    const Function &T = Run.treated();
    const ProfileData &P = Run.treatedProfile();
    double WantBlocks = 0, WantEntered = 0;
    for (size_t I = 0; I < T.numBlocks(); ++I)
      if (T.block(I).isCompensation()) {
        ++WantBlocks;
        WantEntered += P.blockEntries(T.block(I).getId()) != 0;
      }
    EXPECT_EQ(Stats.count("s/oracle/compensation_blocks"), WantBlocks);
    EXPECT_EQ(Stats.count("s/oracle/compensation_blocks_entered"),
              WantEntered);
    Blocks += WantBlocks;
    Entered += WantEntered;
  }
  EXPECT_GT(Blocks, 0.0);
  EXPECT_LE(Entered, Blocks);
  std::printf("suite: the oracle's input enters %.0f of %.0f compensation "
              "blocks\n",
              Entered, Blocks);
}

TEST(SessionWork, FivePaperMachinesCostOneGraphPerNonEmptyBlockPerSide) {
  for (const BenchmarkSpec &S : paperBenchmarkSuite()) {
    SCOPED_TRACE(S.Name);
    StatsRegistry Stats;
    PipelineRun Run(S.Build(), PipelineOptions(), &Stats, "s/");
    Run.prepare();
    double Want = static_cast<double>(nonEmptyBlocks(Run.baseline()) +
                                      nonEmptyBlocks(Run.treated()));
    EXPECT_EQ(Stats.count("s/estimate/depgraphs_built"), Want);
    PipelineResult R = Run.finish(); // five estimates, no further graphs
    EXPECT_EQ(R.Machines.size(), 5u);
    EXPECT_EQ(Stats.count("s/estimate/depgraphs_built"), Want);
  }
}

TEST(SessionWork, MachineOfAnotherBranchLatencyBuildsItsOwnGraphs) {
  StatsRegistry Stats;
  PipelineRun Run(paperBenchmarkSuite().front().Build(), PipelineOptions(),
                  &Stats, "s/");
  Run.prepare();
  double Before = Stats.count("s/estimate/depgraphs_built");
  MachineDesc Wide3 = MachineDesc::wide(3);
  MachineComparison MC = Run.estimateMachine(Wide3);
  EXPECT_EQ(Stats.count("s/estimate/depgraphs_built") - Before,
            static_cast<double>(
                enteredNonEmptyBlocks(Run.baseline(), Run.baselineProfile()) +
                enteredNonEmptyBlocks(Run.treated(), Run.treatedProfile())));
  EXPECT_EQ(MC.BaselineCycles,
            estimatePerformance(Run.baseline(), Wide3, Run.baselineProfile())
                .TotalCycles);
  EXPECT_EQ(MC.TreatedCycles,
            estimatePerformance(Run.treated(), Wide3, Run.treatedProfile())
                .TotalCycles);
}

TEST(SessionWork, SessionsWithoutMachinesBuildNoGraphs) {
  // The compile service transforms without estimating.
  StatsRegistry Stats;
  PipelineOptions Opts;
  Opts.Machines.clear();
  Opts.FailSafe = true;
  PipelineRun Run(paperBenchmarkSuite().front().Build(), Opts, &Stats, "s/");
  ASSERT_TRUE(Run.tryPrepare().ok());
  EXPECT_EQ(Stats.count("s/estimate/depgraphs_built"), 0.0);
  EXPECT_EQ(Run.baselineAnalyses().graphs(), nullptr);
  EXPECT_EQ(Run.treatedAnalyses().graphs(), nullptr);
}

TEST(SessionWork, InjectedBaselineProfileIsRecordedOnceForTheOracle) {
  // An injected profile comes without a run, so the oracle records the
  // baseline's final state with one; its treated run is still the
  // treated profiling run.
  KernelProgram P = paperBenchmarkSuite().front().Build();
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
  StatsRegistry Stats;
  PipelineRun Run(std::move(P), PipelineOptions(), &Stats, "s/");
  Run.setBaselineProfile(std::move(Prof));
  Run.prepare();
  EXPECT_EQ(Stats.count("s/interp/runs"), 2.0);
}

TEST(SessionWork, NonHaltingTreatedRunIsInterpretedOnce) {
  // The oracle's run of a treated function that does not halt is both the
  // failed profiling attempt and the oracle's exit-path verdict, so it is
  // not run again -- not even a loop that runs to the oracle's step cap.
  const char *Halts = "func @f {\nblock @A:\n  halt\n}\n";
  const char *Traps = "func @f {\nblock @A:\n  trap\n}\n";
  const char *Loops =
      "func @f {\nblock @Loop:\n  b1 = pbr(@Loop)\n  branch(T, b1)\n}\n";
  for (const char *Src : {Traps, Loops}) {
    SCOPED_TRACE(Src);
    KernelProgram P;
    P.Func = parseFunctionOrDie(Halts);
    PipelineOptions Opts;
    Opts.CheckEquivalence = false; // the fuzzers' non-fatal oracle
    StatsRegistry Stats;
    PipelineRun Run(std::move(P), Opts, &Stats, "s/");
    Run.setTreated(parseFunctionOrDie(Src));
    const EquivResult &E = Run.checkEquivalenceResult();
    EXPECT_EQ(E.Kind, EquivResult::Divergence::ExitPath);
    EXPECT_EQ(Stats.count("s/interp/runs"), 2.0);
    if (Src == Traps) {
      EXPECT_EQ(E.Detail, checkEquivalence(Run.baseline(), Run.treated(),
                                           Memory(), {})
                              .Detail);
    } else {
      EXPECT_NE(E.Detail.find("hit the step limit after " +
                              std::to_string(DefaultMaxSteps) + " steps"),
                std::string::npos)
          << E.Detail;
    }
  }
}

TEST(SessionWork, RegionOracleRunsCandidatesUnderTheSessionStepCap) {
  // Generator program 7's treated code takes a few more steps than its
  // baseline. Capped at exactly the baseline's steps, the session's
  // region oracle must stop each candidate there, not at the oracle's own
  // DefaultMaxSteps, so a region that adds steps rolls back.
  KernelProgram P = generateProgram(7, GeneratorConfig());
  Memory BaseMem = P.InitMem;
  RunResult Base = interpret(*P.Func, BaseMem, P.InitRegs);
  ASSERT_TRUE(Base.halted());
  {
    PipelineRun Uncapped(P.clone());
    Memory Mem = P.InitMem;
    RunResult Treated = interpret(Uncapped.treated(), Mem, P.InitRegs);
    ASSERT_TRUE(Treated.halted());
    ASSERT_GT(Treated.Steps, Base.Steps) << "the premise of this test";
  }

  DiagnosticEngine Diags;
  PipelineOptions Opts;
  Opts.Machines.clear();
  Opts.CheckEquivalence = false;
  Opts.FailSafe = true;
  Opts.RegionEquivalence = true;
  Opts.InterpMaxSteps = Base.Steps;
  Opts.Diags = &Diags;
  PipelineRun Run(P.clone(), Opts);
  ASSERT_TRUE(Run.tryPrepare().ok());
  EXPECT_FALSE(Run.fellBack());
  EXPECT_GT(Run.cprResult().BlocksRolledBack, 0u);
  const std::string Want =
      "hit the step limit after " + std::to_string(Base.Steps) + " steps";
  size_t Found = 0;
  for (const Diagnostic &D : Diags.diagnostics())
    Found += D.Message.find(Want) != std::string::npos;
  EXPECT_GT(Found, 0u) << Want;
}

TEST(SessionWork, EveryProfilingRunKeepsTheSessionStepCap) {
  // One step below generator program 7's baseline length, the profile the
  // transform reads cannot be made: every way of asking for it fails,
  // fatally or as the session's BudgetExhausted diagnostic.
  KernelProgram P = generateProgram(7, GeneratorConfig());
  Memory BaseMem = P.InitMem;
  RunResult Base = interpret(*P.Func, BaseMem, P.InitRegs);
  ASSERT_TRUE(Base.halted());
  PipelineOptions Opts;
  Opts.InterpMaxSteps = Base.Steps - 1;

  ScopedFatalErrorTrap Trap;
  {
    PipelineRun Run(P.clone(), Opts);
    EXPECT_THROW(Run.baselineProfile(), FatalError);
  }
  {
    PipelineRun Run(P.clone(), Opts);
    EXPECT_THROW(Run.treated(), FatalError);
  }
  {
    PipelineRun Run(P.clone(), Opts);
    EXPECT_THROW(Run.prepare(), FatalError);
  }
  PipelineRun Run(P.clone(), Opts);
  Status S = Run.tryPrepare();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.diagnostic().Code, DiagCode::BudgetExhausted);
  EXPECT_NE(S.diagnostic().Message.find(
                "(" + std::to_string(Base.Steps - 1) + " steps)"),
            std::string::npos)
      << S.diagnostic().Message;
}

TEST(SessionWork, FinalOracleComparesTheCappedTreatedRun) {
  // Capped at exactly the baseline's steps, program 7's treated run (which
  // needs more) stops at the cap. The final oracle compares that run -- an
  // exit-path mismatch, as the region re-check reports one -- instead of
  // running it again uncapped, and the fail-safe session falls back on
  // it: one baseline run, one treated run, one run of the fallback clone.
  KernelProgram P = generateProgram(7, GeneratorConfig());
  Memory BaseMem = P.InitMem;
  RunResult Base = interpret(*P.Func, BaseMem, P.InitRegs);
  ASSERT_TRUE(Base.halted());

  DiagnosticEngine Diags;
  StatsRegistry Stats;
  PipelineOptions Opts;
  Opts.Machines.clear();
  Opts.FailSafe = true; // with the final oracle (CheckEquivalence)
  Opts.InterpMaxSteps = Base.Steps;
  Opts.Diags = &Diags;
  PipelineRun Run(P.clone(), Opts, &Stats, "s/");
  ASSERT_TRUE(Run.tryPrepare().ok());
  EXPECT_TRUE(Run.fellBack());
  const std::string Want =
      "hit the step limit after " + std::to_string(Base.Steps) + " steps";
  size_t Found = 0;
  for (const Diagnostic &D : Diags.diagnostics())
    Found += D.Code == DiagCode::OracleMismatch &&
             D.Message.find(Want) != std::string::npos;
  EXPECT_EQ(Found, 1u) << Want;
  EXPECT_EQ(Stats.count("s/interp/runs"), 3.0);
}

/// The benchmark's sim sessions: tage-sc-l on fetch4.btb64x4, strict.
PipelineOptions simSessionOptions() {
  PipelineOptions Opts;
  Opts.Simulate = true;
  Opts.Predictors = {PredictorKind::TageScL};
  for (const FrontendCellConfig &FC : defaultFrontendConfigs())
    if (FC.Name == "fetch4.btb64x4")
      Opts.Frontend = FC.Frontend;
  return Opts;
}

/// \p Got must equal a fresh simulation of \p Trace through \p F.
void expectFreshSimulation(const SimEstimate &Got, const Function &F,
                           const BranchTrace &Trace,
                           const ProfileData &Profile, const MachineDesc &MD,
                           PredictorKind K, const FrontendOptions &FE) {
  PredictorConfig C;
  C.Profile = &Profile;
  std::unique_ptr<BranchPredictor> Pred = makePredictor(K, C);
  SimOptions SO;
  SO.Frontend = FE;
  SimEstimate Want = simulateTrace(F, MD, Trace, *Pred, SO);
  ASSERT_TRUE(Got.ok() && Want.ok());
  EXPECT_EQ(Got.TotalCycles, Want.TotalCycles);
  EXPECT_EQ(Got.Mispredicts, Want.Mispredicts);
  EXPECT_EQ(Got.BTBMisses, Want.BTBMisses);
  EXPECT_EQ(Got.FetchStallCycles, Want.FetchStallCycles);
}

TEST(SessionWork, SimSessionReplaysEachSideOnceForFiveMachines) {
  StatsRegistry Stats;
  PipelineOptions Opts = simSessionOptions();
  PipelineRun Run(paperBenchmarkSuite()[3].Build(), Opts, &Stats, "s/");
  Run.prepare();
  EXPECT_EQ(Stats.count("s/sim/replays"), 0.0); // on first use, not here
  for (const MachineDesc &MD : Opts.Machines) {
    SimComparison SC = Run.simulate(MD, PredictorKind::TageScL);
    expectFreshSimulation(SC.Treated, Run.treated(), Run.treatedTrace(),
                          Run.treatedProfile(), MD, PredictorKind::TageScL,
                          Opts.Frontend);
  }
  EXPECT_EQ(Stats.count("s/sim/replays"), 2.0);
}

TEST(SessionWork, FinishReplaysEachSideOncePerPredictor) {
  StatsRegistry Stats;
  PipelineOptions Opts;
  Opts.Simulate = true; // five predictors, five machines
  PipelineRun Run(paperBenchmarkSuite()[3].Build(), Opts, &Stats, "s/");
  PipelineResult R = Run.finish();
  EXPECT_EQ(R.Sim.size(), 25u);
  EXPECT_EQ(Stats.count("s/sim/replays"), 10.0);
}

TEST(SessionWork, AnotherBTBGeometryReplaysOnItsOwn) {
  StatsRegistry Stats;
  PipelineOptions Opts = simSessionOptions();
  PipelineRun Run(paperBenchmarkSuite()[3].Build(), Opts, &Stats, "s/");
  Run.prepare();
  for (const MachineDesc &MD : Opts.Machines)
    Run.simulate(MD, PredictorKind::TageScL);
  ASSERT_EQ(Stats.count("s/sim/replays"), 2.0);

  FrontendOptions Small = Opts.Frontend;
  Small.BTB.SetBits = 4;
  Small.BTB.Ways = 2;
  SimComparison SC =
      Run.simulate(MachineDesc::wide(), PredictorKind::TageScL, Small, "s");
  EXPECT_EQ(Stats.count("s/sim/replays"), 4.0);
  expectFreshSimulation(SC.Baseline, Run.baseline(), Run.baselineTrace(),
                        Run.baselineProfile(), MachineDesc::wide(),
                        PredictorKind::TageScL, Small);
  expectFreshSimulation(SC.Treated, Run.treated(), Run.treatedTrace(),
                        Run.treatedProfile(), MachineDesc::wide(),
                        PredictorKind::TageScL, Small);

  // A frontend without a BTB is another BTB setting too; the session's own
  // setting still prices its slots.
  Run.simulate(MachineDesc::wide(), PredictorKind::TageScL, FrontendOptions(),
               "flat");
  EXPECT_EQ(Stats.count("s/sim/replays"), 6.0);
  Run.simulate(MachineDesc::narrow(), PredictorKind::TageScL);
  EXPECT_EQ(Stats.count("s/sim/replays"), 6.0);
}

TEST(SessionWork, DegradedSessionReplaysTheBaselineClone) {
  // An expired deadline degrades the session to a baseline clone whose
  // run is the baseline's: its treated replay is made afresh, of the clone.
  StatsRegistry Stats;
  PipelineOptions Opts = simSessionOptions();
  Opts.FailSafe = true;
  Opts.RequestDeadline = Deadline::afterMs(0);
  PipelineRun Run(paperBenchmarkSuite()[3].Build(), Opts, &Stats, "s/");
  ASSERT_TRUE(Run.tryPrepare().ok());
  ASSERT_TRUE(Run.fellBack());
  for (const MachineDesc &MD : Opts.Machines) {
    SimComparison SC = Run.simulate(MD, PredictorKind::TageScL);
    expectFreshSimulation(SC.Treated, Run.treated(), Run.treatedTrace(),
                          Run.treatedProfile(), MD, PredictorKind::TageScL,
                          Opts.Frontend);
    EXPECT_EQ(SC.Treated.TotalCycles, SC.Baseline.TotalCycles);
  }
  EXPECT_EQ(Stats.count("s/sim/replays"), 2.0);
}

TEST(SessionWork, FallbackDropsTheAbandonedTreatedReplays) {
  // The treated side is replayed, then the oracle finds it diverges and
  // the fail-safe session falls back: the next simulate() replays the
  // baseline clone instead of pricing the abandoned function's replay.
  auto Loop = [](int Trip) {
    return parseFunctionOrDie("func @f {\n  observable r5\nblock @Entry:\n"
                              "  r1 = mov(" +
                              std::to_string(Trip) +
                              ")\n  r5 = mov(0)\nblock @Loop:\n"
                              "  r1 = sub(r1, 1)\n  r5 = add(r5, 1)\n"
                              "  p1:un = cmpp.gt(r1, 0)\n  b1 = pbr(@Loop)\n"
                              "  branch(p1, b1)\n  halt\n}\n");
  };
  KernelProgram P;
  P.Func = Loop(5);
  PipelineOptions Opts = simSessionOptions();
  Opts.FailSafe = true;
  Opts.CheckEquivalence = false;
  StatsRegistry Stats;
  PipelineRun Run(std::move(P), Opts, &Stats, "s/");
  Run.setTreated(Loop(9));
  Run.baselineProfile();
  Run.treatedProfile();
  MachineDesc MD = MachineDesc::medium();
  SimComparison Before = Run.simulate(MD, PredictorKind::TageScL);
  EXPECT_EQ(Before.Treated.Branches, 9u);

  Run.checkEquivalence();
  ASSERT_TRUE(Run.fellBack());
  Run.treatedProfile();
  SimComparison After = Run.simulate(MD, PredictorKind::TageScL);
  EXPECT_EQ(After.Treated.Branches, 5u);
  expectFreshSimulation(After.Treated, Run.treated(), Run.treatedTrace(),
                        Run.treatedProfile(), MD, PredictorKind::TageScL,
                        Opts.Frontend);
  EXPECT_EQ(After.Treated.TotalCycles, After.Baseline.TotalCycles);
  EXPECT_EQ(Stats.count("s/sim/replays"), 3.0);
}

TEST(PipelineSharedGraphs, EightThreadFinishMatchesSerial) {
  auto Run = [](ThreadPool *Pool, StatsRegistry &Stats) {
    PipelineOptions Opts;
    Opts.Simulate = true;
    Opts.Predictors = {PredictorKind::TageScL, PredictorKind::Gshare};
    PipelineRun Session(paperBenchmarkSuite()[5].Build(), Opts, &Stats, "s/");
    return Session.finish(Pool);
  };
  StatsRegistry SerialStats, PooledStats;
  PipelineResult Serial = Run(nullptr, SerialStats);
  ThreadPool Pool(8);
  PipelineResult Pooled = Run(&Pool, PooledStats);

  ASSERT_EQ(Serial.Machines.size(), Pooled.Machines.size());
  for (size_t I = 0; I < Serial.Machines.size(); ++I) {
    EXPECT_EQ(Serial.Machines[I].BaselineCycles,
              Pooled.Machines[I].BaselineCycles);
    EXPECT_EQ(Serial.Machines[I].TreatedCycles,
              Pooled.Machines[I].TreatedCycles);
  }
  ASSERT_EQ(Serial.Sim.size(), Pooled.Sim.size());
  for (size_t I = 0; I < Serial.Sim.size(); ++I) {
    EXPECT_EQ(Serial.Sim[I].Baseline.TotalCycles,
              Pooled.Sim[I].Baseline.TotalCycles);
    EXPECT_EQ(Serial.Sim[I].Treated.TotalCycles,
              Pooled.Sim[I].Treated.TotalCycles);
    EXPECT_EQ(Serial.Sim[I].Treated.Mispredicts,
              Pooled.Sim[I].Treated.Mispredicts);
  }
  EXPECT_EQ(SerialStats.toJSONText(false), PooledStats.toJSONText(false));
  EXPECT_GT(PooledStats.count("s/estimate/depgraphs_built"), 0.0);
}

TEST(PipelineSharedReplays, EightThreadFinishMatchesSerial) {
  // Five machines x two predictors on eight threads: every simulate() of a
  // side and predictor races for the same once-flag, and exactly one of
  // them replays.
  auto Run = [](ThreadPool *Pool, StatsRegistry &Stats) {
    PipelineOptions Opts = simSessionOptions();
    Opts.Predictors = {PredictorKind::TageScL, PredictorKind::Local};
    PipelineRun Session(paperBenchmarkSuite()[7].Build(), Opts, &Stats, "s/");
    return Session.finish(Pool);
  };
  StatsRegistry SerialStats, PooledStats;
  PipelineResult Serial = Run(nullptr, SerialStats);
  ThreadPool Pool(8);
  PipelineResult Pooled = Run(&Pool, PooledStats);

  ASSERT_EQ(Serial.Sim.size(), 10u);
  ASSERT_EQ(Pooled.Sim.size(), 10u);
  for (size_t I = 0; I < Serial.Sim.size(); ++I)
    for (auto Side : {&SimComparison::Baseline, &SimComparison::Treated}) {
      const SimEstimate &A = Serial.Sim[I].*Side, &B = Pooled.Sim[I].*Side;
      EXPECT_EQ(A.TotalCycles, B.TotalCycles);
      EXPECT_EQ(A.Mispredicts, B.Mispredicts);
      EXPECT_EQ(A.BTBMisses, B.BTBMisses);
      EXPECT_EQ(A.FetchStallCycles, B.FetchStallCycles);
      EXPECT_EQ(A.Blocks.size(), B.Blocks.size());
    }
  EXPECT_EQ(SerialStats.toJSONText(false), PooledStats.toJSONText(false));
  EXPECT_EQ(PooledStats.count("s/sim/replays"), 4.0);
}

} // namespace
