//===- bench/bench_fig2_bypass.cpp - Paper Figure 2 -----------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Regenerates Figure 2: bypass-branch insertion and height-reduced FRP
// evaluation. Takes the canonical three-branch superblock, applies the
// full control CPR transformation, prints the before/after listings, and
// reports the dependence-height reduction the transformation achieves --
// the "final height-reduced code" panel of the figure -- across machine
// models.
//
//===----------------------------------------------------------------------===//

#include "analysis/DepGraph.h"
#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/CompilerPipeline.h"
#include "sched/ListScheduler.h"
#include "support/TableFormat.h"

#include <cstdio>

using namespace cpr;

namespace {

/// Figure 2's starting superblock (conditions c1..c3, stores between the
/// branches), as a runnable loop so a profile exists.
const char *Fig2Src = R"(
func @figure2 {
block @Entry:
  r61 = mov(64)
block @SB:
  r11 = add(r2, 0)
  r51 = load.m1(r11)
  p1:un = cmpp.lt(r51, 5)
  b1 = pbr(@Exit)
  branch(p1, b1)
  store.m2(r31, r51)
  r12 = add(r2, 1)
  r52 = load.m1(r12)
  p2:un = cmpp.lt(r52, 5)
  b2 = pbr(@Exit)
  branch(p2, b2)
  store.m2(r32, r52)
  r13 = add(r2, 2)
  r53 = load.m1(r13)
  p3:un = cmpp.lt(r53, 5)
  b3 = pbr(@Exit)
  branch(p3, b3)
  store.m2(r33, r53)
  r2 = add(r2, 3)
  r61 = sub(r61, 1)
  p4:un = cmpp.gt(r61, 0)
  b4 = pbr(@SB)
  branch(p4, b4)
  halt
block @Exit:
  halt
}
)";

KernelProgram makeFig2Program() {
  KernelProgram P;
  P.Func = parseFunctionOrDie(Fig2Src);
  // Condition data: values >= 5 fall through (biased).
  for (int64_t I = 0; I < 400; ++I)
    P.InitMem.store(1000 + I, 5 + (I * 7) % 90);
  P.InitRegs = {{Reg::gpr(2), 1000},
                {Reg::gpr(31), 5000},
                {Reg::gpr(32), 5001},
                {Reg::gpr(33), 5002}};
  return P;
}

int bypassDeparture(const Function &F, const std::string &BlockName,
                    const MachineDesc &MD) {
  const Block *B = const_cast<Function &>(F).blockByName(BlockName);
  RegionPQS PQS(F, *B);
  Liveness LV(F);
  DepGraph DG(F, *B, MD, PQS, LV);
  Schedule S = scheduleBlock(*B, DG, MD);
  int Last = 0;
  for (size_t I = 0; I < B->size(); ++I)
    if (B->ops()[I].isBranch())
      Last = std::max(Last, S.departureCycle(I, *B, MD));
  return Last;
}

void printFigure2() {
  KernelProgram P = makeFig2Program();
  std::unique_ptr<Function> Base = P.Func->clone();
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*Base, Mem, P.InitRegs);

  CPRResult CR;
  std::unique_ptr<Function> Treated =
      applyControlCPR(*Base, Prof, CPROptions(), &CR);

  std::printf("Figure 2(a): the original superblock (inside the "
              "rectangle)\n\n%s\n",
              printBlock(*Base, *Base->blockByName("SB")).c_str());
  std::printf("Figure 2(b): final height-reduced code -- single on-trace "
              "bypass branch, wired-and/wired-or FRP evaluation, original "
              "branches in the compensation block\n\n");
  for (size_t I = 0; I < Treated->numBlocks(); ++I) {
    const Block &B = Treated->block(I);
    if (B.getName() == "SB" || B.isCompensation())
      std::printf("%s\n", printBlock(*Treated, B).c_str());
  }

  TextTable T;
  T.setHeader({"machine", "exit height, original", "exit height, CPR"});
  for (const MachineDesc &MD : MachineDesc::paperModels()) {
    T.addRow({MD.getName(),
              std::to_string(bypassDeparture(*Base, "SB", MD)),
              std::to_string(bypassDeparture(*Treated, "SB", MD))});
  }
  std::printf("Cycle at which the last on-trace exit resolves:\n\n%s\n",
              T.render().c_str());
  std::printf("CPR blocks transformed: %u (lookaheads %u, moved off-trace "
              "%u, split %u)\n\n",
              CR.CPRBlocksTransformed, CR.LookaheadsInserted,
              CR.OpsMovedOffTrace, CR.OpsSplit);
}

} // namespace

int main() {
  printFigure2();
  return 0;
}
