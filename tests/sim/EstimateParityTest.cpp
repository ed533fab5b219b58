//===- tests/sim/EstimateParityTest.cpp - One pricer for the estimate -----===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// estimatePerformance, which prices a profile's count table through the
// simulator's pricer, against the static performance model it replaced,
// kept below verbatim as the reference: TotalCycles must be equal, and so
// must the row of every block the profile entered, on the paper suite,
// the benchmark ladder and generated programs (both sides of a session),
// on the five paper machines and wide(3), in both weighting modes, with
// and without the session's shared liveness and graphs -- and on
// hand-built profiles the interpreter never produces.
//
//===----------------------------------------------------------------------===//

#include "sim/TraceSimulator.h"

#include "analysis/AnalysisCache.h"
#include "analysis/CFG.h"
#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "fuzz/Generator.h"
#include "ir/IRParser.h"
#include "pipeline/PipelineRun.h"
#include "sched/ListScheduler.h"
#include "workloads/BenchmarkSuite.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

using namespace cpr;

namespace {

// --- The reference: the static performance model before it priced ------
// --- through the simulator ----------------------------------------------

/// Per-block detail of one estimate.
struct BlockEstimate {
  BlockId Id;
  std::string Name;
  uint64_t Entries = 0;
  int ScheduleLength = 0;
  int CriticalPath = 0;
  double Cycles = 0.0;
};

/// A whole-function estimate.
struct PerfEstimate {
  double TotalCycles = 0.0;
  std::vector<BlockEstimate> Blocks;
  /// Dependence graphs the estimate built itself: 0 when the given
  /// BlockGraphs fit \p MD, else one per non-empty block.
  size_t DepGraphsBuilt = 0;
};

PerfEstimate referenceEstimate(const Function &F, const MachineDesc &MD,
                               const ProfileData &Profile,
                               const PerfModelOptions &Opts,
                               const Liveness *SharedLV,
                               const BlockGraphs *Graphs) {
  PerfEstimate Est;
  DepGraphOptions DOpts;
  DOpts.AllowSpeculation = Opts.AllowSpeculation;
  if (Graphs && !Graphs->fits(MD, DOpts))
    Graphs = nullptr; // another machine's latencies: build this one's own
  std::unique_ptr<Liveness> Owned;
  if (!Graphs && !SharedLV) {
    Owned = std::make_unique<Liveness>(F);
    SharedLV = Owned.get();
  }

  for (size_t BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
    const Block &B = F.block(BI);
    BlockEstimate BEst;
    BEst.Id = B.getId();
    BEst.Name = B.getName();
    BEst.Entries = Profile.blockEntries(B.getId());
    if (B.empty()) {
      Est.Blocks.push_back(BEst);
      continue;
    }

    std::optional<DepGraph> Own;
    const DepGraph *DG = Graphs ? Graphs->graph(BI) : nullptr;
    if (!DG) {
      RegionPQS PQS(F, B);
      DG = &Own.emplace(F, B, MD, PQS, *SharedLV, DOpts);
      ++Est.DepGraphsBuilt;
    }
    Schedule S = scheduleBlock(B, *DG, MD);
    BEst.ScheduleLength = S.length();
    BEst.CriticalPath = DG->criticalPathLength();

    if (BEst.Entries == 0) {
      Est.Blocks.push_back(BEst);
      continue;
    }

    if (Opts.WeightMode == PerfModelOptions::Mode::BlockLength) {
      BEst.Cycles = static_cast<double>(BEst.Entries) *
                    static_cast<double>(S.length());
    } else {
      // Exit-aware: entries that depart through a taken interior branch are
      // charged up to its departure cycle; the rest pay the full length.
      uint64_t Departed = 0;
      double Cycles = 0.0;
      for (const BlockExit &E : blockExits(F, BI)) {
        if (E.isFallThrough())
          continue;
        const Operation &Op = B.ops()[static_cast<size_t>(E.OpIdx)];
        if (!Op.isBranch())
          continue; // halt/trap handled as block end below
        uint64_t Taken = Profile.branchTaken(Op.getId());
        if (Taken == 0)
          continue;
        Cycles += static_cast<double>(Taken) *
                  static_cast<double>(
                      S.departureCycle(static_cast<size_t>(E.OpIdx), B, MD));
        Departed += Taken;
      }
      uint64_t FallThrough =
          BEst.Entries > Departed ? BEst.Entries - Departed : 0;
      Cycles += static_cast<double>(FallThrough) *
                static_cast<double>(S.length());
      BEst.Cycles = Cycles;
    }
    Est.TotalCycles += BEst.Cycles;
    Est.Blocks.push_back(BEst);
  }
  return Est;
}

// --- The comparison -----------------------------------------------------

/// The same totals, and one row per entered block with the reference's
/// entries and cycles; the pricer schedules no block the reference did
/// not.
void expectSameEstimate(const PerfEstimate &Want, const SimEstimate &Got) {
  EXPECT_EQ(Want.TotalCycles, Got.TotalCycles);
  EXPECT_LE(Got.DepGraphsBuilt, Want.DepGraphsBuilt);
  size_t Row = 0;
  for (const BlockEstimate &W : Want.Blocks) {
    if (W.Entries == 0)
      continue;
    ASSERT_LT(Row, Got.Blocks.size()) << "no row for @" << W.Name;
    const SimBlockStats &G = Got.Blocks[Row++];
    EXPECT_EQ(W.Id, G.Id);
    EXPECT_EQ(W.Entries, G.Entries) << "@" << W.Name;
    EXPECT_EQ(W.Cycles, G.Cycles) << "@" << W.Name;
  }
  EXPECT_EQ(Row, Got.Blocks.size());
}

std::vector<MachineDesc> machines() {
  std::vector<MachineDesc> Out = MachineDesc::paperModels();
  Out.push_back(MachineDesc::wide(3));
  return Out;
}

/// Both weighting modes on every machine, with and without \p FA's
/// liveness and graphs. Returns the number of comparisons.
unsigned checkSide(const Function &F, const ProfileData &Profile,
                   const FunctionAnalyses *FA) {
  unsigned Compared = 0;
  for (const MachineDesc &MD : machines())
    for (PerfModelOptions::Mode M : {PerfModelOptions::Mode::BlockLength,
                                     PerfModelOptions::Mode::ExitAware})
      for (bool Shared : {false, true}) {
        SCOPED_TRACE("@" + F.getName() + " on " + MD.getName() +
                     (M == PerfModelOptions::Mode::BlockLength
                          ? " block-length"
                          : " exit-aware") +
                     (Shared ? " shared" : " own"));
        PerfModelOptions Opts;
        Opts.WeightMode = M;
        const Liveness *LV = Shared && FA ? &FA->LV : nullptr;
        const BlockGraphs *Graphs = Shared && FA ? FA->graphs() : nullptr;
        expectSameEstimate(
            referenceEstimate(F, MD, Profile, Opts, LV, Graphs),
            estimatePerformance(F, MD, Profile, Opts, LV, Graphs));
        ++Compared;
      }
  return Compared;
}

/// Both sides of a fail-safe session of \p P. The oracle is off, so a
/// known miscompile keeps its treated code.
unsigned checkSession(KernelProgram P) {
  PipelineOptions Opts;
  Opts.FailSafe = true;
  Opts.CheckEquivalence = false;
  PipelineRun Run(std::move(P), Opts);
  EXPECT_TRUE(Run.tryPrepare().ok());
  return checkSide(Run.baseline(), Run.baselineProfile(),
                   &Run.baselineAnalyses()) +
         checkSide(Run.treated(), Run.treatedProfile(),
                   &Run.treatedAnalyses());
}

constexpr unsigned CasesPerSession = 2 * 6 * 2 * 2;

TEST(EstimateParity, SuiteProgramsMatchTheReference) {
  unsigned Compared = 0;
  for (const BenchmarkSpec &S : paperBenchmarkSuite())
    Compared += checkSession(S.Build());
  EXPECT_EQ(Compared, 24u * CasesPerSession);
}

TEST(EstimateParity, LadderProgramsMatchTheReference) {
  struct Rung {
    unsigned MaxBlocks, MaxItems;
    std::vector<uint64_t> Seeds;
  };
  unsigned Compared = 0;
  for (const Rung &R : {Rung{80, 8, {1000, 1002, 1003}},
                        Rung{120, 12, {1000, 1008, 1001}}}) {
    GeneratorConfig GC;
    GC.MaxBlocks = R.MaxBlocks;
    GC.MaxItemsPerRegion = R.MaxItems;
    GC.SyntheticFrac = 0.0;
    for (uint64_t Seed : R.Seeds)
      Compared += checkSession(generateProgram(Seed, GC));
  }
  EXPECT_EQ(Compared, 6u * CasesPerSession);
}

TEST(EstimateParity, GeneratedProgramsMatchTheReference) {
  unsigned Compared = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    Compared += checkSession(generateProgram(Seed, GeneratorConfig()));
  EXPECT_EQ(Compared, 40u * CasesPerSession);
}

// Profiles no run produces, each on every machine and in both modes.

TEST(EstimateParity, TakenCountAboveTheEntryCountLeavesNoFallThrough) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un = cmpp.eq(r1, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r2 = xor(r9, 1)
  r3 = xor(r2, 2)
  store(r3, r3)
  halt
block @X:
  halt
}
)");
  const Block &A = F->block(0);
  ProfileData P;
  P.addBlockEntry(A.getId(), 10);
  P.addBlockEntry(F->block(1).getId(), 25);
  P.addBranchTaken(A.ops()[2].getId(), 25);
  EXPECT_EQ(checkSide(*F, P, nullptr), 6u * 2u * 2u);
  // No fall-through is left to charge: @A costs what 25 entries that all
  // leave at the branch cost.
  ProfileData AllTaken = P;
  AllTaken.addBlockEntry(A.getId(), 15);
  SimEstimate E = estimatePerformance(*F, MachineDesc::medium(), P);
  SimEstimate Want = estimatePerformance(*F, MachineDesc::medium(), AllTaken);
  ASSERT_EQ(E.Blocks.size(), 2u);
  ASSERT_EQ(Want.Blocks.size(), 2u);
  EXPECT_EQ(E.Blocks[0].Cycles, Want.Blocks[0].Cycles);
}

TEST(EstimateParity, ColdBlocksAreNeitherChargedNorScheduled) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un = cmpp.eq(r1, 0)
  b1 = pbr(@Cold2)
  branch(p1, b1)
  r2 = add(r1, 1)
block @Cold1:
  r3 = add(r2, 1)
  p3:un = cmpp.eq(r3, 0)
  b2 = pbr(@Cold2)
  branch(p3, b2)
block @B:
  r5 = add(r1, 2)
  halt
block @Cold2:
  r6 = mul(r1, r1)
  halt
}
)");
  ProfileData P;
  P.addBlockEntry(F->block(0).getId(), 7);
  P.addBlockEntry(F->block(2).getId(), 7);
  // A taken count in a block the profile never entered charges nothing.
  P.addBranchTaken(F->block(1).ops()[3].getId(), 4);
  EXPECT_EQ(checkSide(*F, P, nullptr), 6u * 2u * 2u);
  SimEstimate E = estimatePerformance(*F, MachineDesc::medium(), P);
  ASSERT_EQ(E.Blocks.size(), 2u);
  EXPECT_EQ(E.Blocks[0].Name, "A");
  EXPECT_EQ(E.Blocks[1].Name, "B");
  EXPECT_EQ(E.DepGraphsBuilt, 2u);
}

TEST(EstimateParity, GuardedHaltInMidBlockIsAFallThrough) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un = cmpp.eq(r1, 0)
  r2 = add(r9, 1)
  halt if p1
  r3 = add(r2, 1)
  p2:un = cmpp.lt(r3, 5)
  b1 = pbr(@X)
  branch(p2, b1)
  r4 = mul(r3, r3)
  store(r4, r4)
block @X:
  halt
}
)");
  const Block &A = F->block(0);
  ProfileData P;
  // Ten entries: four halt at the guarded halt, three leave at the
  // branch, three fall through into @X.
  P.addBlockEntry(A.getId(), 10);
  P.addBlockEntry(F->block(1).getId(), 6);
  P.addBranchReached(A.ops()[6].getId(), 6);
  P.addBranchTaken(A.ops()[6].getId(), 3);
  EXPECT_EQ(checkSide(*F, P, nullptr), 6u * 2u * 2u);
}

} // namespace
