//===- fuzz/Reducer.cpp - Delta-debugging test-case reduction -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Reducer.h"

#include "interp/Interpreter.h"
#include "ir/Verifier.h"

#include <algorithm>

using namespace cpr;

namespace {

/// Shared state of one reduction: the judging oracle, the verdict whose
/// failure signature to preserve, and the oracle budget.
struct ReduceCtx {
  const CaseOracle &Oracle;
  const FuzzVerdict &Want;
  /// Unified oracle-run / wall-clock budget (support/Budget.h); one step
  /// is one judged variant.
  BudgetTracker Tracker;
  /// Step bound for the cheap halting pre-screen, derived from the
  /// original program's own run length.
  uint64_t StepBudget = 0;

  bool budgetLeft() const { return !Tracker.exhausted(); }

  /// The reduction predicate: candidate verifies, its baseline still
  /// halts quickly, and the oracle reproduces the same signature.
  bool stillFails(const KernelProgram &Cand) {
    if (!budgetLeft())
      return false;
    if (!verifyFunction(*Cand.Func).empty())
      return false;
    if (StepBudget > 0) {
      Memory Mem = Cand.InitMem;
      InterpOptions IO;
      IO.MaxSteps = StepBudget;
      RunResult R = interpret(*Cand.Func, Mem, Cand.InitRegs, IO);
      if (!R.halted())
        return false;
    }
    if (!Tracker.consume())
      return false;
    return Oracle(Cand).sameFailure(Want);
  }

  bool tryReplace(KernelProgram &Best, KernelProgram Cand) {
    if (!stillFails(Cand))
      return false;
    Best = std::move(Cand);
    return true;
  }
};

/// Removes the ops at flattened indices [Start, Start+Len) of \p F.
void removeOpRange(Function &F, size_t Start, size_t Len) {
  for (size_t BI = 0; BI < F.numBlocks() && Len > 0; ++BI) {
    auto &Ops = F.block(BI).ops();
    size_t Size = Ops.size();
    if (Start >= Size) {
      Start -= Size; // range begins in a later block
      continue;
    }
    size_t Hi = std::min(Size, Start + Len);
    Ops.erase(Ops.begin() + static_cast<ptrdiff_t>(Start),
              Ops.begin() + static_cast<ptrdiff_t>(Hi));
    Len -= Hi - Start;
    Start = 0; // the remainder starts at the next block's first op
  }
}

bool blockRemovalPass(KernelProgram &Best, ReduceCtx &Ctx) {
  bool Progress = false;
  size_t BI = 0;
  while (Ctx.budgetLeft() && BI < Best.Func->numBlocks() &&
         Best.Func->numBlocks() > 1) {
    KernelProgram Cand = Best.clone();
    Cand.Func->removeBlock(Cand.Func->block(BI).getId());
    if (Ctx.tryReplace(Best, std::move(Cand)))
      Progress = true; // same index now names the next block
    else
      ++BI;
  }
  return Progress;
}

/// ddmin over the flattened operation list: chunk sizes n/2, n/4, ..., 1.
bool opChunkPass(KernelProgram &Best, ReduceCtx &Ctx) {
  bool Progress = false;
  size_t Chunk = std::max<size_t>(1, Best.Func->totalOps() / 2);
  while (Ctx.budgetLeft()) {
    size_t Start = 0;
    while (Ctx.budgetLeft() && Start < Best.Func->totalOps()) {
      KernelProgram Cand = Best.clone();
      removeOpRange(*Cand.Func, Start, Chunk);
      if (Ctx.tryReplace(Best, std::move(Cand)))
        Progress = true; // list shifted; retry the same start
      else
        Start += Chunk;
    }
    if (Chunk == 1)
      break;
    Chunk = std::max<size_t>(1, Chunk / 2);
  }
  return Progress;
}

bool immCanonPass(KernelProgram &Best, ReduceCtx &Ctx) {
  bool Progress = false;
  for (size_t BI = 0; Ctx.budgetLeft() && BI < Best.Func->numBlocks(); ++BI) {
    for (size_t OI = 0; Ctx.budgetLeft() && OI < Best.Func->block(BI).size();
         ++OI) {
      // Index, don't hold a reference: a successful tryReplace move-assigns
      // Best and frees the operation storage the reference pointed into.
      for (size_t SI = 0;
           Ctx.budgetLeft() && SI < Best.Func->block(BI).ops()[OI].srcs().size();
           ++SI) {
        const Operand &Src = Best.Func->block(BI).ops()[OI].srcs()[SI];
        if (!Src.isImm() || Src.getImm() == 0)
          continue;
        KernelProgram Cand = Best.clone();
        Cand.Func->block(BI).ops()[OI].srcs()[SI] = Operand::imm(0);
        if (Ctx.tryReplace(Best, std::move(Cand)))
          Progress = true;
      }
    }
  }
  return Progress;
}

bool inputsPass(KernelProgram &Best, ReduceCtx &Ctx) {
  bool Progress = false;
  // Memory cells, chunked over the sorted address list.
  std::vector<int64_t> Addrs;
  for (const auto &[Addr, Val] : Best.InitMem.sortedCells())
    Addrs.push_back(Addr);
  size_t Chunk = std::max<size_t>(1, Addrs.size() / 2);
  while (Ctx.budgetLeft() && !Addrs.empty()) {
    size_t Start = 0;
    while (Ctx.budgetLeft() && Start < Addrs.size()) {
      KernelProgram Cand = Best.clone();
      Memory Mem;
      size_t End = std::min(Addrs.size(), Start + Chunk);
      for (size_t I = 0; I < Addrs.size(); ++I)
        if (I < Start || I >= End)
          Mem.store(Addrs[I], Best.InitMem.load(Addrs[I]));
      Cand.InitMem = Mem;
      if (Ctx.tryReplace(Best, std::move(Cand))) {
        Progress = true;
        Addrs.erase(Addrs.begin() + static_cast<ptrdiff_t>(Start),
                    Addrs.begin() + static_cast<ptrdiff_t>(End));
      } else {
        Start += Chunk;
      }
    }
    if (Chunk == 1)
      break;
    Chunk = std::max<size_t>(1, Chunk / 2);
  }
  // Register bindings, one at a time (unbound registers read as zero).
  for (size_t I = 0; Ctx.budgetLeft() && I < Best.InitRegs.size();) {
    KernelProgram Cand = Best.clone();
    Cand.InitRegs.erase(Cand.InitRegs.begin() + static_cast<ptrdiff_t>(I));
    if (Ctx.tryReplace(Best, std::move(Cand)))
      Progress = true; // same index now names the next binding
    else
      ++I;
  }
  return Progress;
}

} // namespace

ReduceResult cpr::reduceCaseWith(const KernelProgram &P,
                                 const CaseOracle &Oracle,
                                 const ReducerOptions &Opts) {
  ReduceResult Res;
  Res.Reduced = P.clone();
  Res.OriginalOps = P.Func->totalOps();
  Res.ReducedOps = Res.OriginalOps;

  // Establish the signature to preserve.
  FuzzVerdict Seed = Oracle(P);
  Res.Outcome = Seed.Outcome;
  Res.Divergence = Seed.Divergence;
  Res.OracleRuns = 1;
  if (Seed.Outcome == FuzzOutcome::Pass)
    return Res; // nothing to reduce

  ReduceCtx Ctx{Oracle, Seed, BudgetTracker(Opts.OracleBudget)};
  // Halting pre-screen budget: 4x the original's own run length (the
  // interesting candidates shrink the program, not grow its runtime).
  {
    Memory Mem = P.InitMem;
    RunResult R = interpret(*P.Func, Mem, P.InitRegs);
    if (R.halted())
      Ctx.StepBudget = 4 * R.Steps + 10'000;
  }

  bool Progress = true;
  while (Progress && Ctx.budgetLeft()) {
    Progress = false;
    Progress |= blockRemovalPass(Res.Reduced, Ctx);
    Progress |= opChunkPass(Res.Reduced, Ctx);
    if (Opts.CanonicalizeImms)
      Progress |= immCanonPass(Res.Reduced, Ctx);
    Progress |= inputsPass(Res.Reduced, Ctx);
  }

  Res.OracleRuns += Ctx.Tracker.steps();
  Res.ReducedOps = Res.Reduced.Func->totalOps();
  Res.Reduced.Description =
      "reduced reproducer (" + std::string(fuzzOutcomeName(Res.Outcome)) +
      (Res.Outcome == FuzzOutcome::Mismatch
           ? std::string(", ") + divergenceName(Res.Divergence)
           : std::string()) +
      ")";
  return Res;
}
