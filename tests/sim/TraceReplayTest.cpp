//===- tests/sim/TraceReplayTest.cpp - Replay once, price per machine -----===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// priceReplay(replayTrace(...)) against the one-pass simulator it
// replaced, kept below verbatim as the reference: every SimEstimate field
// and every SimBlockStats row must be equal, on the paper suite (both
// sides), on generated programs, on the five paper machines under every
// predictor and three frontends -- and every failure keeps its Error text.
//
//===----------------------------------------------------------------------===//

#include "sim/TraceSimulator.h"

#include "analysis/AnalysisCache.h"
#include "analysis/CFG.h"
#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "fuzz/Generator.h"
#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "pipeline/PipelineRun.h"
#include "pipeline/Reports.h"
#include "sched/ListScheduler.h"
#include "workloads/BenchmarkSuite.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

using namespace cpr;

namespace {

// --- The reference: the simulator before the replay/pricing split ---------

/// Lazily scheduled blocks: only blocks the trace actually enters pay the
/// scheduling cost, and loop bodies are scheduled once. Shared graphs that
/// fit the machine are scheduled as they are; otherwise each block builds
/// its own, over the shared liveness or one solved on first need.
class ScheduleCache {
public:
  ScheduleCache(const Function &F, const MachineDesc &MD,
                const DepGraphOptions &DOpts, const Liveness *LV,
                const BlockGraphs *Graphs)
      : F(F), MD(MD), DOpts(DOpts), LV(LV),
        Graphs(Graphs && Graphs->fits(MD, DOpts) ? Graphs : nullptr),
        Cache(F.numBlocks()) {}

  const Schedule &get(size_t LayoutIdx) {
    std::optional<Schedule> &Slot = Cache[LayoutIdx];
    if (!Slot) {
      const Block &B = F.block(LayoutIdx);
      if (B.empty()) {
        Slot.emplace();
      } else if (Graphs) {
        Slot = scheduleBlock(B, *Graphs->graph(LayoutIdx), MD);
      } else {
        RegionPQS PQS(F, B);
        DepGraph DG(F, B, MD, PQS, liveness(), DOpts);
        Slot = scheduleBlock(B, DG, MD);
      }
    }
    return *Slot;
  }

private:
  const Liveness &liveness() {
    if (!LV) {
      Owned = std::make_unique<Liveness>(F);
      LV = Owned.get();
    }
    return *LV;
  }

  const Function &F;
  const MachineDesc &MD;
  DepGraphOptions DOpts;
  const Liveness *LV;
  std::unique_ptr<Liveness> Owned;
  const BlockGraphs *Graphs;
  std::vector<std::optional<Schedule>> Cache;
};

SimEstimate referenceSimulateTrace(const Function &F, const MachineDesc &MD,
                                   const BranchTrace &Trace,
                                   BranchPredictor &Pred,
                                   const SimOptions &Opts,
                                   const Liveness *LV = nullptr,
                                   const BlockGraphs *Graphs = nullptr) {
  SimEstimate Est;
  std::vector<SimBlockStats> BlockStats(F.numBlocks());
  std::optional<BTB> TargetBuffer;
  auto finish = [&]() -> SimEstimate & {
    Est.Pred = Pred.stats();
    if (TargetBuffer) {
      Est.BTBLookups = TargetBuffer->stats().Lookups;
      Est.BTBHits = TargetBuffer->stats().Hits;
      Est.BTBMisses = TargetBuffer->stats().Misses;
    }
    for (SimBlockStats &BS : BlockStats)
      if (BS.Entries != 0)
        Est.Blocks.push_back(std::move(BS));
    return Est;
  };
  auto fail = [&](const std::string &Msg) -> SimEstimate & {
    Est.Error = Msg;
    return finish();
  };

  if (F.numBlocks() == 0)
    return fail("function has no blocks");
  if (!Trace.hasTerminal())
    return fail("trace has no terminal marker (run did not halt?)");

  int Penalty =
      Opts.MispredictPenalty >= 0 ? Opts.MispredictPenalty
                                  : MD.mispredictPenalty();
  const FrontendOptions &FE = Opts.Frontend;
  int BTBMissPenalty = FE.BTBMissPenalty >= 0 ? FE.BTBMissPenalty
                                              : MD.btbMissPenalty();
  int FetchWidth = FE.FetchWidth > 0 ? FE.FetchWidth : MD.fetchWidth();
  if (FE.UseBTB)
    TargetBuffer.emplace(FE.BTB);
  DepGraphOptions DOpts;
  DOpts.AllowSpeculation = Opts.AllowSpeculation;
  ScheduleCache Schedules(F, MD, DOpts, LV, Graphs);

  // Decoupled frontend: a block entry that dispatches N operations needs
  // ceil(N / FetchWidth) fetch cycles (the taken branch or halt that ends
  // the entry also ends its last fetch packet); when the schedule retires
  // faster than that, the backend stalls for the difference.
  auto chargeFetch = [&](SimBlockStats &BS, double BackendCycles,
                         uint64_t OpsFetched) {
    if (!FE.Decoupled || OpsFetched == 0)
      return;
    uint64_t FetchCycles =
        (OpsFetched + static_cast<uint64_t>(FetchWidth) - 1) /
        static_cast<uint64_t>(FetchWidth);
    double Backend = BackendCycles;
    if (static_cast<double>(FetchCycles) > Backend) {
      uint64_t Stall = FetchCycles - static_cast<uint64_t>(Backend);
      BS.FetchStallCycles += Stall;
      BS.Cycles += static_cast<double>(Stall);
      Est.FetchStallCycles += Stall;
      Est.TotalCycles += static_cast<double>(Stall);
    }
  };

  size_t Cursor = 0; // next unconsumed trace event
  size_t BI = 0;     // layout index of the current block

  while (true) {
    const Block &B = F.block(BI);
    const Schedule &S = Schedules.get(BI);
    SimBlockStats &BS = BlockStats[BI];
    if (BS.Entries == 0) {
      BS.Id = B.getId();
      BS.Name = B.getName();
    }
    ++BS.Entries;
    ++Est.BlockEntries;

    bool Transferred = false;
    for (size_t OI = 0, OE = B.size(); OI != OE; ++OI) {
      const Operation &Op = B.ops()[OI];

      if (Op.getId() == Trace.terminalOp() &&
          (Op.getOpcode() == Opcode::Halt ||
           Op.getOpcode() == Opcode::Trap)) {
        // The run ended on this operation. Like the ExitAware performance
        // model, a halt exit is charged the full block length.
        double C = static_cast<double>(S.length());
        BS.Cycles += C;
        Est.TotalCycles += C;
        Est.OpsDispatched += OI + 1;
        chargeFetch(BS, C, OI + 1);
        if (Cursor != Trace.size())
          return fail("trace has " + std::to_string(Trace.size() - Cursor) +
                      " event(s) past the terminal operation");
        return finish();
      }

      if (Op.getOpcode() == Opcode::Halt || Op.getOpcode() == Opcode::Trap) {
        // A non-terminal halt/trap on the replayed path must have been
        // nullified by its guard; an unguarded one means the trace does
        // not belong to this function.
        if (Op.getGuard().isTruePred())
          return fail("trace diverged: unguarded " +
                      std::string(Op.getOpcode() == Opcode::Halt ? "halt"
                                                                 : "trap") +
                      " in @" + B.getName() + " is not the trace terminal");
        continue;
      }

      if (!Op.isBranch())
        continue;

      if (Cursor >= Trace.size())
        return fail("trace exhausted at branch id " +
                    std::to_string(Op.getId()) + " in @" + B.getName());
      const BranchEvent &Ev = Trace.event(Cursor++);
      if (Ev.Op != Op.getId())
        return fail("trace diverged in @" + B.getName() + ": event id " +
                    std::to_string(Ev.Op) + " vs branch id " +
                    std::to_string(Op.getId()));

      ++Est.Branches;
      bool Predicted = Pred.observe(Ev.Op, Ev.Taken);
      if (Predicted != Ev.Taken) {
        ++Est.Mispredicts;
        ++BS.Mispredicts;
        Est.PenaltyCycles += static_cast<uint64_t>(Penalty);
        BS.Cycles += Penalty;
        Est.TotalCycles += Penalty;
      }

      if (Ev.Taken) {
        double C = static_cast<double>(S.departureCycle(OI, B, MD));
        BS.Cycles += C;
        Est.TotalCycles += C;
        Est.OpsDispatched += OI + 1;
        BlockId Target = resolveBranchTarget(B, OI);
        if (Target == InvalidBlockId)
          return fail("branch id " + std::to_string(Op.getId()) +
                      " in @" + B.getName() + " has no resolvable target");
        if (TargetBuffer) {
          // The frontend needs the target to redirect without a bubble.
          // A direction mispredict already paid the full restart above;
          // only a direction-correct target miss costs extra here.
          bool Hit = TargetBuffer->access(Op.getId(), Target);
          if (!Hit && Predicted == Ev.Taken) {
            ++BS.BTBMisses;
            Est.BTBPenaltyCycles += static_cast<uint64_t>(BTBMissPenalty);
            BS.Cycles += BTBMissPenalty;
            Est.TotalCycles += BTBMissPenalty;
          }
        }
        chargeFetch(BS, C, OI + 1);
        int TargetIdx = F.layoutIndex(Target);
        if (TargetIdx < 0)
          return fail("branch id " + std::to_string(Op.getId()) +
                      " targets a block outside the function");
        BI = static_cast<size_t>(TargetIdx);
        Transferred = true;
        break;
      }
    }
    if (Transferred)
      continue;

    // Fell through the end of the block.
    double C = static_cast<double>(S.length());
    BS.Cycles += C;
    Est.TotalCycles += C;
    Est.OpsDispatched += B.size();
    chargeFetch(BS, C, B.size());
    if (BI + 1 >= F.numBlocks())
      return fail("control fell off the end of the function in @" +
                  B.getName());
    ++BI;
  }
}

// --- Parity ----------------------------------------------------------------

void expectSameEstimate(const SimEstimate &Want, const SimEstimate &Got) {
  EXPECT_EQ(Want.Error, Got.Error);
  EXPECT_EQ(Want.TotalCycles, Got.TotalCycles);
  EXPECT_EQ(Want.PenaltyCycles, Got.PenaltyCycles);
  EXPECT_EQ(Want.OpsDispatched, Got.OpsDispatched);
  EXPECT_EQ(Want.Branches, Got.Branches);
  EXPECT_EQ(Want.Mispredicts, Got.Mispredicts);
  EXPECT_EQ(Want.BlockEntries, Got.BlockEntries);
  EXPECT_EQ(Want.BTBLookups, Got.BTBLookups);
  EXPECT_EQ(Want.BTBHits, Got.BTBHits);
  EXPECT_EQ(Want.BTBMisses, Got.BTBMisses);
  EXPECT_EQ(Want.BTBPenaltyCycles, Got.BTBPenaltyCycles);
  EXPECT_EQ(Want.FetchStallCycles, Got.FetchStallCycles);
  EXPECT_EQ(Want.Pred.Lookups, Got.Pred.Lookups);
  EXPECT_EQ(Want.Pred.Mispredicts, Got.Pred.Mispredicts);
  ASSERT_EQ(Want.Blocks.size(), Got.Blocks.size());
  for (size_t I = 0; I < Want.Blocks.size(); ++I) {
    const SimBlockStats &W = Want.Blocks[I], &G = Got.Blocks[I];
    SCOPED_TRACE("block @" + W.Name);
    EXPECT_EQ(W.Id, G.Id);
    EXPECT_EQ(W.Name, G.Name);
    EXPECT_EQ(W.Entries, G.Entries);
    EXPECT_EQ(W.Mispredicts, G.Mispredicts);
    EXPECT_EQ(W.BTBMisses, G.BTBMisses);
    EXPECT_EQ(W.FetchStallCycles, G.FetchStallCycles);
    EXPECT_EQ(W.Cycles, G.Cycles);
  }
}

/// flat, fetch4.btb64x4, and a decoupled frontend of the machine's fetch
/// width without a BTB.
std::vector<std::pair<std::string, FrontendOptions>> frontends() {
  std::vector<std::pair<std::string, FrontendOptions>> Out;
  for (const FrontendCellConfig &FC : defaultFrontendConfigs())
    Out.emplace_back(FC.Name, FC.Frontend);
  FrontendOptions Decoupled;
  Decoupled.Decoupled = true;
  Out.emplace_back("decoupled", Decoupled);
  return Out;
}

/// One replay per predictor and frontend, priced on each paper machine,
/// against a reference simulation per machine, both over \p FA's liveness
/// and graphs when given. Returns the number of comparisons.
unsigned checkSide(const Function &F, const BranchTrace &Trace,
                   const ProfileData &Profile, const FunctionAnalyses *FA) {
  const Liveness *LV = FA ? &FA->LV : nullptr;
  const BlockGraphs *Graphs = FA ? FA->graphs() : nullptr;
  unsigned Compared = 0;
  PredictorConfig C;
  C.Profile = &Profile;
  for (PredictorKind K : allPredictorKinds())
    for (const auto &[FEName, FE] : frontends()) {
      std::unique_ptr<BranchPredictor> Pred = makePredictor(K, C);
      TraceReplay R = replayTrace(F, Trace, *Pred, FE);
      EXPECT_TRUE(R.ok()) << R.Error;
      SimOptions SO;
      SO.Frontend = FE;
      for (const MachineDesc &MD : MachineDesc::paperModels()) {
        SCOPED_TRACE("@" + F.getName() + " " + predictorKindName(K) + " " +
                     FEName + " " + MD.getName());
        std::unique_ptr<BranchPredictor> RefPred = makePredictor(K, C);
        expectSameEstimate(
            referenceSimulateTrace(F, MD, Trace, *RefPred, SO, LV, Graphs),
            priceReplay(R, F, MD, SO, LV, Graphs));
        ++Compared;
      }
    }
  return Compared;
}

/// Both sides of a simulating session of \p P; with \p SharedGraphs,
/// over the session's analyses and graphs, else each simulation builds
/// its own.
unsigned checkSession(KernelProgram P, bool SharedGraphs) {
  PipelineOptions Opts;
  Opts.Simulate = true;
  Opts.FailSafe = true;
  if (!SharedGraphs)
    Opts.Machines.clear();
  PipelineRun Run(std::move(P), Opts);
  EXPECT_TRUE(Run.tryPrepare().ok());
  return checkSide(Run.baseline(), Run.baselineTrace(),
                   Run.baselineProfile(),
                   SharedGraphs ? &Run.baselineAnalyses() : nullptr) +
         checkSide(Run.treated(), Run.treatedTrace(), Run.treatedProfile(),
                   SharedGraphs ? &Run.treatedAnalyses() : nullptr);
}

TEST(TraceReplayTest, SuiteProgramsMatchTheReferenceOnEveryConfiguration) {
  unsigned Compared = 0;
  for (const BenchmarkSpec &S : paperBenchmarkSuite())
    Compared += checkSession(S.Build(), /*SharedGraphs=*/true);
  EXPECT_EQ(Compared, 24u * 2u * 5u * 3u * 5u);
}

TEST(TraceReplayTest, GeneratedProgramsMatchTheReferenceOnEveryConfiguration) {
  unsigned Compared = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed)
    Compared += checkSession(generateProgram(Seed, GeneratorConfig()),
                             /*SharedGraphs=*/false);
  EXPECT_EQ(Compared, 10u * 2u * 5u * 3u * 5u);
}

TEST(TraceReplayTest, SimulateTraceIsReplayThenPrice) {
  KernelProgram P = buildLexKernel(4, 2048, 9);
  Memory Mem = P.InitMem;
  BranchTrace Trace;
  ProfileData Profile =
      profileRun(*P.Func, Mem, P.InitRegs, nullptr, &Trace);
  PredictorConfig C;
  C.Profile = &Profile;
  SimOptions SO;
  SO.Frontend = frontends()[1].second;
  SO.MispredictPenalty = 7;
  SO.Frontend.BTBMissPenalty = 2;
  std::unique_ptr<BranchPredictor> PA =
      makePredictor(PredictorKind::TageScL, C);
  std::unique_ptr<BranchPredictor> PB =
      makePredictor(PredictorKind::TageScL, C);
  expectSameEstimate(
      referenceSimulateTrace(*P.Func, MachineDesc::narrow(), Trace, *PA, SO),
      simulateTrace(*P.Func, MachineDesc::narrow(), Trace, *PB, SO));
}

/// The reference's and the replay's Error for \p Trace over \p F.
void expectSameError(const Function &F, const BranchTrace &Trace,
                     const char *Fragment) {
  SCOPED_TRACE(Fragment);
  for (const auto &[FEName, FE] : frontends()) {
    SimOptions SO;
    SO.Frontend = FE;
    std::unique_ptr<BranchPredictor> PA = makePredictor(PredictorKind::Gshare);
    std::unique_ptr<BranchPredictor> PB = makePredictor(PredictorKind::Gshare);
    SimEstimate Want =
        referenceSimulateTrace(F, MachineDesc::medium(), Trace, *PA, SO);
    TraceReplay R = replayTrace(F, Trace, *PB, FE);
    SimEstimate Got = priceReplay(R, F, MachineDesc::medium(), SO);
    ASSERT_FALSE(Want.ok());
    EXPECT_NE(Want.Error.find(Fragment), std::string::npos) << Want.Error;
    EXPECT_EQ(R.Error, Want.Error);
    EXPECT_EQ(Got.Error, Want.Error);
  }
}

TEST(TraceReplayTest, EveryFailureKeepsItsErrorText) {
  std::unique_ptr<Function> Loop = parseFunctionOrDie(R"(
func @loop {
block @Entry:
  r1 = mov(3)
block @Loop:
  r1 = sub(r1, 1)
  p1:un = cmpp.gt(r1, 0)
  b1 = pbr(@Loop)
  branch(p1, b1)
  halt
}
)");
  BranchTrace Good;
  {
    Memory Mem;
    profileRun(*Loop, Mem, {}, nullptr, &Good);
    ASSERT_EQ(Good.size(), 3u);
  }
  OpId Br = Good.event(0).Op;
  OpId Halt = Good.terminalOp();

  expectSameError(Function("empty"), Good, "no blocks");

  BranchTrace NoTerminal;
  NoTerminal.record(Br, true);
  expectSameError(*Loop, NoTerminal, "terminal marker");

  BranchTrace Diverged;
  Diverged.record(Br + 100, true);
  Diverged.markTerminal(Halt);
  expectSameError(*Loop, Diverged, "trace diverged in @Loop");

  BranchTrace Exhausted;
  Exhausted.record(Br, true);
  Exhausted.markTerminal(Halt);
  expectSameError(*Loop, Exhausted, "trace exhausted");

  BranchTrace PastTerminal;
  for (size_t I = 0; I < Good.size(); ++I)
    PastTerminal.record(Good.event(I).Op, Good.event(I).Taken);
  PastTerminal.record(Br, false);
  PastTerminal.markTerminal(Halt);
  expectSameError(*Loop, PastTerminal, "past the terminal");

  // No halt at all: the last block falls off the end of the function.
  std::unique_ptr<Function> Open = parseFunctionOrDie(R"(
func @open {
block @A:
  r1 = mov(1)
}
)");
  BranchTrace Unterminated;
  Unterminated.markTerminal(Halt);
  expectSameError(*Open, Unterminated, "fell off the end");

  // An unguarded halt that is not the trace's terminal.
  BranchTrace OtherTerminal;
  for (size_t I = 0; I < Good.size(); ++I)
    OtherTerminal.record(Good.event(I).Op, Good.event(I).Taken);
  OtherTerminal.markTerminal(Halt + 100);
  expectSameError(*Loop, OtherTerminal, "is not the trace terminal");
}

} // namespace
