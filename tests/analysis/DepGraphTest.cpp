//===- tests/analysis/DepGraphTest.cpp - Dependence graph tests -----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/DepGraph.h"

#include "ir/IRParser.h"
#include "workloads/BenchmarkSuite.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

struct Built {
  std::unique_ptr<Function> F;
  std::unique_ptr<RegionPQS> PQS;
  std::unique_ptr<Liveness> LV;
  std::unique_ptr<DepGraph> DG;
};

Built build(const std::string &Src, bool AllowSpeculation = true) {
  Built Bu;
  Bu.F = parseFunctionOrDie(Src);
  const Block &B = Bu.F->block(0);
  Bu.PQS = std::make_unique<RegionPQS>(*Bu.F, B);
  Bu.LV = std::make_unique<Liveness>(*Bu.F);
  DepGraphOptions Opts;
  Opts.AllowSpeculation = AllowSpeculation;
  Bu.DG = std::make_unique<DepGraph>(*Bu.F, B, MachineDesc::medium(),
                                     *Bu.PQS, *Bu.LV, Opts);
  return Bu;
}

bool hasEdge(const DepGraph &DG, uint32_t From, uint32_t To, DepKind K) {
  for (const DepEdge &E : DG.edges())
    if (E.From == From && E.To == To && E.Kind == K)
      return true;
  return false;
}

bool hasAnyEdge(const DepGraph &DG, uint32_t From, uint32_t To) {
  for (const DepEdge &E : DG.edges())
    if (E.From == From && E.To == To)
      return true;
  return false;
}

TEST(DepGraphTest, FlowAntiOutput) {
  Built Bu = build(R"(
func @f {
block @A:
  r1 = mov(1)
  r2 = add(r1, 2)
  r1 = mov(3)
  halt
}
)");
  EXPECT_TRUE(hasEdge(*Bu.DG, 0, 1, DepKind::Flow));
  EXPECT_TRUE(hasEdge(*Bu.DG, 1, 2, DepKind::Anti));
  EXPECT_TRUE(hasEdge(*Bu.DG, 0, 2, DepKind::Output));
}

TEST(DepGraphTest, FlowLatencyIsProducerLatency) {
  Built Bu = build(R"(
func @f {
block @A:
  r1 = load(r9)
  r2 = add(r1, 2)
  r3 = mul(r2, r2)
  r4 = add(r3, 1)
  halt
}
)");
  // load latency 2, mul latency 3.
  for (const DepEdge &E : Bu.DG->edges()) {
    if (E.From == 0 && E.To == 1) {
      EXPECT_EQ(E.Latency, 2);
    }
    if (E.From == 2 && E.To == 3) {
      EXPECT_EQ(E.Latency, 3);
    }
  }
  // Critical path: load(2) + add(1) + mul(3) + add(1) = 7.
  EXPECT_EQ(Bu.DG->criticalPathLength(), 7);
}

TEST(DepGraphTest, WiredWritesAreMutuallyUnordered) {
  Built Bu = build(R"(
func @f {
block @A:
  p1 = mov(0)
  p1:on = cmpp.eq(r1, 1)
  p1:on = cmpp.eq(r2, 2)
  r3 = add(r3, 1) if p1
  halt
}
)");
  // Both wired writes depend on the initializer and feed the use, but not
  // each other.
  EXPECT_TRUE(hasAnyEdge(*Bu.DG, 0, 1));
  EXPECT_TRUE(hasAnyEdge(*Bu.DG, 0, 2));
  EXPECT_FALSE(hasAnyEdge(*Bu.DG, 1, 2));
  EXPECT_TRUE(hasEdge(*Bu.DG, 1, 3, DepKind::Flow));
  EXPECT_TRUE(hasEdge(*Bu.DG, 2, 3, DepKind::Flow));
}

TEST(DepGraphTest, MemoryClassesDisambiguate) {
  Built Bu = build(R"(
func @f {
block @A:
  store.m1(r1, r2)
  r3 = load.m1(r4)
  r5 = load.m2(r6)
  store.m2(r7, r8)
  halt
}
)");
  EXPECT_TRUE(hasEdge(*Bu.DG, 0, 1, DepKind::Mem));  // same class
  EXPECT_FALSE(hasAnyEdge(*Bu.DG, 0, 2));            // different class
  EXPECT_FALSE(hasAnyEdge(*Bu.DG, 1, 3));            // different class
  EXPECT_TRUE(hasEdge(*Bu.DG, 2, 3, DepKind::Mem));  // load then store, same
}

TEST(DepGraphTest, BaseOffsetDisambiguation) {
  Built Bu = build(R"(
func @f {
block @A:
  r10 = add(r1, 0)
  r11 = add(r1, 1)
  store.m1(r10, r2)
  store.m1(r11, r3)
  r4 = load.m1(r10)
  halt
}
)");
  // Same base, different offsets: stores independent.
  EXPECT_FALSE(hasAnyEdge(*Bu.DG, 2, 3));
  // Same base, same offset: store -> load dependence.
  EXPECT_TRUE(hasEdge(*Bu.DG, 2, 4, DepKind::Mem));
  EXPECT_FALSE(hasAnyEdge(*Bu.DG, 3, 4));
}

TEST(DepGraphTest, InductionUpdatesTrackedSymbolically) {
  Built Bu = build(R"(
func @f {
block @A:
  r10 = add(r1, 0)
  store.m1(r10, r2)
  r1 = add(r1, 4)
  r11 = add(r1, 0)
  r12 = add(r1, -4)
  r4 = load.m1(r11)
  r5 = load.m1(r12)
  halt
}
)");
  // "r1 += 4" is folded into the symbolic base: the post-update load at
  // offset 0 is base+4 (independent of the store at base+0), while the
  // load at offset -4 is the same address as the store.
  EXPECT_FALSE(hasAnyEdge(*Bu.DG, 1, 5));
  EXPECT_TRUE(hasEdge(*Bu.DG, 1, 6, DepKind::Mem));
}

TEST(DepGraphTest, DisjointGuardsPruneMemoryEdges) {
  Built Bu = build(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  store(r3, r4) if p1
  store(r3, r5) if p2
  halt
}
)");
  // Same (unknown) address but disjoint guards: never both execute.
  EXPECT_FALSE(hasAnyEdge(*Bu.DG, 1, 2));
}

TEST(DepGraphTest, ControlDependenceOnStores) {
  Built Bu = build(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  store(r3, r4)
  store(r5, r6) if p2
  halt
block @X:
  halt
}
)");
  // The unguarded store is control dependent on the branch; the store
  // guarded by the complementary (disjoint) predicate is not.
  EXPECT_TRUE(hasEdge(*Bu.DG, 2, 3, DepKind::Control));
  EXPECT_FALSE(hasEdge(*Bu.DG, 2, 4, DepKind::Control));
}

TEST(DepGraphTest, SpeculationRules) {
  const char *Src = R"(
func @f {
  observable r7
block @A:
  p1:un = cmpp.eq(r1, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r5 = add(r1, 1)
  r7 = add(r1, 2)
  halt
block @X:
  r9 = add(r7, 1)
  store(r9, r9)
  halt
}
)";
  // With speculation: r5 (dead at @X) may hoist; r7 (live at @X) may not.
  Built Spec = build(Src, /*AllowSpeculation=*/true);
  EXPECT_FALSE(hasAnyEdge(*Spec.DG, 2, 3));
  EXPECT_TRUE(hasEdge(*Spec.DG, 2, 4, DepKind::Control));
  // Without speculation both are pinned below the branch.
  Built NoSpec = build(Src, /*AllowSpeculation=*/false);
  EXPECT_TRUE(hasEdge(*NoSpec.DG, 2, 3, DepKind::Control));
  EXPECT_TRUE(hasEdge(*NoSpec.DG, 2, 4, DepKind::Control));
}

TEST(DepGraphTest, BranchOverlapRules) {
  Built Bu = build(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  p3:un = cmpp.eq(r2, 0) if p2
  p5:un = cmpp.eq(r3, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  b2 = pbr(@X)
  branch(p3, b2)
  b3 = pbr(@X)
  branch(p5, b3)
  halt
block @X:
  halt
}
)");
  // Branches 4 and 6 have provably disjoint taken predicates (p3 implies
  // !p1): they may overlap. Branch 8's predicate is unrelated: ordered.
  EXPECT_FALSE(hasAnyEdge(*Bu.DG, 4, 6));
  EXPECT_TRUE(hasEdge(*Bu.DG, 4, 8, DepKind::Control));
  EXPECT_TRUE(hasEdge(*Bu.DG, 6, 8, DepKind::Control));
}

TEST(DepGraphTest, TransitiveSuccessors) {
  Built Bu = build(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  r5 = add(r1, 1) if p2
  r6 = add(r5, 1)
  store(r6, r6)
  r7 = add(r1, 9)
  halt
}
)");
  std::vector<uint32_t> Succ = Bu.DG->transitiveSuccessors(0);
  // Chain: cmpp -> (guard) add r5 -> add r6 -> store. r7 is independent.
  EXPECT_NE(std::find(Succ.begin(), Succ.end(), 1u), Succ.end());
  EXPECT_NE(std::find(Succ.begin(), Succ.end(), 2u), Succ.end());
  EXPECT_NE(std::find(Succ.begin(), Succ.end(), 3u), Succ.end());
  EXPECT_EQ(std::find(Succ.begin(), Succ.end(), 4u), Succ.end());
}

TEST(DepGraphTest, DepthsAndHeightsAreConsistent) {
  Built Bu = build(R"(
func @f {
block @A:
  r1 = load(r9)
  r2 = add(r1, 2)
  r3 = add(r2, 1)
  halt
}
)");
  std::vector<int> D = Bu.DG->depths();
  std::vector<int> H = Bu.DG->heights();
  int CP = Bu.DG->criticalPathLength();
  for (size_t I = 0; I < D.size(); ++I)
    EXPECT_LE(D[I] + H[I], CP) << "node " << I;
  // The chain head has the full height.
  EXPECT_EQ(H[0], CP);
}

/// Edges and node latencies of two graphs, as one comparable string.
std::string describe(const DepGraph &DG) {
  std::string S;
  for (const DepEdge &E : DG.edges())
    S += std::to_string(E.From) + depKindName(E.Kind) + std::to_string(E.To) +
         "@" + std::to_string(E.Latency) + " ";
  for (size_t N = 0; N < DG.numNodes(); ++N)
    S += std::to_string(DG.nodeLatency(static_cast<uint32_t>(N))) + ",";
  return S;
}

TEST(BlockGraphsTest, OneGraphPerBlockServesEveryMachineOfItsBranchLatency) {
  for (const BenchmarkSpec &Spec : paperBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    KernelProgram P = Spec.Build();
    const Function &F = *P.Func;
    Liveness LV(F);
    BlockGraphs G(F, LV, MachineDesc::sequential());
    size_t NonEmpty = 0;
    for (const MachineDesc &MD : MachineDesc::paperModels()) {
      EXPECT_TRUE(G.fits(MD, DepGraphOptions()));
      for (size_t BI = 0; BI < F.numBlocks(); ++BI) {
        const Block &B = F.block(BI);
        if (B.empty()) {
          EXPECT_EQ(G.graph(BI), nullptr);
          continue;
        }
        ASSERT_NE(G.graph(BI), nullptr);
        RegionPQS PQS(F, B);
        DepGraph Own(F, B, MD, PQS, LV);
        EXPECT_EQ(describe(*G.graph(BI)), describe(Own)) << B.getName();
        NonEmpty += MD.getName() == "sequential";
      }
    }
    EXPECT_EQ(G.size(), NonEmpty);
  }
}

TEST(BlockGraphsTest, OtherBranchLatencyOrSpeculationModeDoesNotFit) {
  Built Bu = build(R"(
func @f {
block @A:
  r1 = add(r2, 1)
  halt
}
)");
  BlockGraphs G(*Bu.F, *Bu.LV, MachineDesc::medium());
  EXPECT_TRUE(G.fits(MachineDesc::wide(), DepGraphOptions()));
  EXPECT_FALSE(G.fits(MachineDesc::wide(3), DepGraphOptions()));
  DepGraphOptions NoSpec;
  NoSpec.AllowSpeculation = false;
  EXPECT_FALSE(G.fits(MachineDesc::wide(), NoSpec));
  EXPECT_EQ(G.size(), 1u);
}

} // namespace
