//===- lint/LintPassesV2.cpp - The whole-region v2 checks -------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four whole-region checks added with the cpr-lint v2 schema
/// (docs/LINT.md), built on the dense dataflow framework
/// (analysis/Dataflow.h) and the same PQS/BDD proofs as the original five:
///
///  - dead-under-predicate      an operation's guard (or a branch's taken
///                              condition) is provably unsatisfiable;
///  - redundant-compensation    a compensation block unconditionally
///                              recomputes a value the on-trace prefix
///                              already produced and nothing clobbered;
///  - uninit-read               a register is read although no definition
///                              anywhere in the function can reach it;
///  - resource-oversubscription a schedule issues more operations in one
///                              cycle than the machine front end fetches.
///
/// Same conservatism contract as LintPasses.cpp: findings are exact
/// proofs; BDD budget exhaustion silences the obligation.
///
//===----------------------------------------------------------------------===//

#include "lint/LintInternal.h"

#include "analysis/Dataflow.h"
#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "ir/CmppAction.h"
#include "lint/Witness.h"
#include "sched/ListScheduler.h"

#include <memory>
#include <string>
#include <vector>

using namespace cpr;
using namespace cpr::lint_detail;

namespace {

//===----------------------------------------------------------------------===//
// Check 6: dead-under-predicate
//===----------------------------------------------------------------------===//

class DeadUnderPredicatePass : public LintPass {
public:
  const char *name() const override { return "dead-under-predicate"; }
  const char *description() const override {
    return "an operation's guard (or a branch's taken condition) is "
           "provably unsatisfiable: the operation can never take effect";
  }

  void run(LintContext &Ctx, std::vector<LintFinding> &Out) override {
    const Function &F = Ctx.func();
    for (size_t L = 0; L < F.numBlocks(); ++L) {
      const Block &B = F.block(L);
      if (B.empty())
        continue;
      RegionPQS PQS(F, B);
      BDD &Mgr = PQS.bdd();
      for (size_t I = 0; I < B.size(); ++I) {
        const Operation &Op = B.ops()[I];
        if (Op.isBranch()) {
          BDD::NodeRef Taken = PQS.takenExpr(I);
          if (!Mgr.isValid(Taken) || Taken != BDD::False)
            continue;
          LintFinding Fd = makeFinding(
              DiagCode::LintDeadUnderPred, name(), B, static_cast<int>(I),
              "branch can never take: its taken condition is provably "
              "false",
              DiagSeverity::Warning);
          Fd.Witness =
              buildWitness(F, B, PQS, dispatchCond(PQS, B, I, B.size()),
                           LintWitness::Expect::BranchNeverTaken);
          Fd.Witness->AnchorOp = Op.getId();
          Out.push_back(std::move(Fd));
          continue;
        }
        if (Op.isControl() || Op.getOpcode() == Opcode::Pbr ||
            Op.getOpcode() == Opcode::Nop)
          continue;
        if (Op.isCmpp()) {
          // A cmpp is inert under a false guard only when every target is
          // wired: UN/UC targets write (a zero) even when the guard does
          // not hold.
          bool AllWired = !Op.defs().empty();
          for (const DefSlot &D : Op.defs())
            if (!isWiredAction(D.Act))
              AllWired = false;
          if (!AllWired)
            continue;
        }
        BDD::NodeRef G = PQS.guardExpr(I);
        if (!Mgr.isValid(G) || G != BDD::False)
          continue;
        LintFinding Fd = makeFinding(
            DiagCode::LintDeadUnderPred, name(), B, static_cast<int>(I),
            "operation's guard " + Op.getGuard().str() +
                " is provably unsatisfiable: the operation is dead",
            DiagSeverity::Warning);
        Fd.Witness =
            buildWitness(F, B, PQS, dispatchCond(PQS, B, I, B.size()),
                         LintWitness::Expect::OpIneffective);
        Fd.Witness->AnchorOp = Op.getId();
        Out.push_back(std::move(Fd));
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// Check 7: redundant-compensation
//===----------------------------------------------------------------------===//

class RedundantCompensationPass : public LintPass {
public:
  const char *name() const override { return "redundant-compensation"; }
  const char *description() const override {
    return "a compensation block unconditionally recomputes a value the "
           "on-trace prefix already produced and nothing clobbered";
  }

  void run(LintContext &Ctx, std::vector<LintFinding> &Out) override {
    const Function &F = Ctx.func();
    for (size_t L = 0; L < F.numBlocks(); ++L) {
      const Block &B = F.block(L);
      if (B.isCompensation())
        continue;
      for (const Bypass &BP : findBypasses(F, B)) {
        if (BP.Lookaheads.empty())
          continue;
        Block Path = makePathBlock(B, BP);
        std::unique_ptr<RegionPQS> PPQ;
        for (size_t K = 0; K < BP.Comp->size(); ++K) {
          const Operation &C = BP.Comp->ops()[K];
          if (C.isCmpp() || C.isControl() || C.hasSideEffects() ||
              C.getOpcode() == Opcode::Pbr || C.defs().empty() ||
              !C.getGuard().isTruePred())
            continue;
          int Twin = findOnTraceTwin(B, BP, Path, K, C);
          if (Twin < 0)
            continue;
          Reg R = C.defs().front().R;
          LintFinding Fd = makeFinding(
              DiagCode::LintRedundantComp, name(), *BP.Comp,
              static_cast<int>(K),
              "compensation recomputes " + R.str() +
                  ", already produced on-trace by op %" +
                  std::to_string(B.ops()[Twin].getId()) +
                  " and unclobbered on the off-trace path",
              DiagSeverity::Warning);
          if (!PPQ)
            PPQ.reset(new RegionPQS(F, Path));
          size_t PathIdx = BP.BranchIdx + 1 + K;
          BDD::NodeRef V = PPQ->bdd().mkAnd(
              PPQ->takenExpr(BP.BranchIdx),
              dispatchCond(*PPQ, Path, PathIdx, BP.BranchIdx));
          // Sampled just before the recomputation and just before the
          // next op: equal values prove the recomputation changed
          // nothing.
          if (K + 1 < BP.Comp->size()) {
            Fd.Witness = buildWitness(F, Path, *PPQ, V,
                                      LintWitness::Expect::RegUnchanged);
            Fd.Witness->AnchorOp = C.getId();
            Fd.Witness->AuxOps.push_back(BP.Comp->ops()[K + 1].getId());
            Fd.Witness->WatchRegs.push_back(R);
          } else {
            Fd.Witness = buildWitness(F, Path, *PPQ, V,
                                      LintWitness::Expect::BranchTaken);
            Fd.Witness->AnchorOp = B.ops()[BP.BranchIdx].getId();
          }
          Fd.Witness->Path.push_back(BP.Comp->getName());
          Out.push_back(std::move(Fd));
        }
      }
    }
  }

private:
  /// Index in \p B of an unguarded on-trace op before the bypass that is
  /// textually identical to compensation op \p C, with no op between the
  /// twin and \p C (in off-trace path order) redefining any source or
  /// destination register of the pair, and no intervening store when the
  /// pair loads. Returns -1 when no such twin exists.
  static int findOnTraceTwin(const Block &B, const Bypass &BP,
                             const Block &Path, size_t CompIdx,
                             const Operation &C) {
    for (size_t J = 0; J < BP.BranchIdx; ++J) {
      const Operation &O = B.ops()[J];
      if (O.getOpcode() != C.getOpcode() || O.getCond() != C.getCond() ||
          !O.getGuard().isTruePred() || !(O.defs() == C.defs()) ||
          !(O.srcs() == C.srcs()))
        continue;
      bool Clobbered = false;
      size_t PathEnd = BP.BranchIdx + 1 + CompIdx;
      for (size_t M = J + 1; M < PathEnd && !Clobbered; ++M) {
        const Operation &Mid = Path.ops()[M];
        if (C.isLoad() && Mid.isStore())
          Clobbered = true;
        for (const DefSlot &D : Mid.defs()) {
          if (C.readsReg(D.R) || C.definesReg(D.R))
            Clobbered = true;
        }
      }
      if (!Clobbered)
        return static_cast<int>(J);
    }
    return -1;
  }
};

//===----------------------------------------------------------------------===//
// Check 8: uninit-read
//===----------------------------------------------------------------------===//

class UninitReadPass : public LintPass {
public:
  const char *name() const override { return "uninit-read"; }
  const char *description() const override {
    return "a register is read although no definition anywhere in the "
           "function can reach the reading block";
  }

  void run(LintContext &Ctx, std::vector<LintFinding> &Out) override {
    const Function &F = Ctx.func();
    const ReachingDefBlocks &Reach = Ctx.reachingDefs();
    for (size_t L = 0; L < F.numBlocks(); ++L) {
      const Block &B = F.block(L);
      if (B.empty())
        continue;
      std::unique_ptr<RegionPQS> BQ;
      for (size_t I = 0; I < B.size(); ++I) {
        const Operation &Op = B.ops()[I];
        std::vector<Reg> Reads;
        if (!Op.getGuard().isTruePred())
          Reads.push_back(Op.getGuard());
        for (const Operand &S : Op.srcs())
          if (S.isReg() && !S.getReg().isTruePred())
            Reads.push_back(S.getReg());
        for (Reg R : Reads) {
          // A register with no definition anywhere is a function input by
          // convention; the check targets reads that *look* locally
          // defined (a definition exists somewhere) but provably are not.
          // Caller-declared inputs (InitRegs bindings) are initialized by
          // the environment even when the function also redefines them.
          if (!Reach.hasAnyDef(R) || Ctx.isDeclaredInput(R))
            continue;
          // Pruning accelerator: definitely-assigned registers need no
          // exact treatment (forward/intersection subsumes the rest).
          if (Ctx.definiteAssignment().assignedAtEntry(R, L))
            continue;
          bool DefBefore = false;
          for (size_t J = 0; J < I && !DefBefore; ++J)
            if (B.ops()[J].definesReg(R))
              DefBefore = true;
          if (DefBefore || Ctx.defReachesEntry(R, L))
            continue; // in-block partial defs are use-before-def's job
          LintFinding Fd = makeFinding(
              DiagCode::LintUninitRead, name(), B, static_cast<int>(I),
              "register " + R.str() +
                  " is read but no definition of it can reach this block");
          if (!BQ)
            BQ.reset(new RegionPQS(F, B));
          BDD::NodeRef V = BQ->bdd().mkAnd(
              BQ->guardExpr(I), dispatchCond(*BQ, B, I, B.size()));
          Fd.Witness = buildWitness(F, B, *BQ, V,
                                    LintWitness::Expect::UseWithoutDef);
          Fd.Witness->AnchorOp = Op.getId();
          for (size_t M = 0; M < F.numBlocks(); ++M)
            for (const Operation &Def : F.block(M).ops())
              if (!Def.isCmpp() && Def.definesReg(R))
                Fd.Witness->AuxOps.push_back(Def.getId());
          Out.push_back(std::move(Fd));
        }
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// Check 9: resource-oversubscription
//===----------------------------------------------------------------------===//

class ResourceOversubscriptionPass : public LintPass {
public:
  const char *name() const override { return "resource-oversubscription"; }
  const char *description() const override {
    return "a schedule issues more operations in one cycle than the "
           "machine front end fetches (fetch-width occupancy)";
  }

  void run(LintContext &Ctx, std::vector<LintFinding> &Out) override {
    const Function &F = Ctx.func();
    const Liveness &LV = Ctx.liveness();
    for (size_t L = 0; L < F.numBlocks(); ++L) {
      const Block &B = F.block(L);
      if (B.empty())
        continue;
      RegionPQS PQS(F, B);
      for (const MachineDesc &MD : Ctx.options().Machines) {
        DepGraph DG(F, B, MD, PQS, LV);
        Schedule S = scheduleBlock(B, DG, MD);
        validate(B, MD, S, MD.fetchWidth(), Out);
      }
      for (const InjectedSchedule &Inj : Ctx.options().Schedules) {
        if (Inj.BlockName != B.getName() || Inj.Cycles.size() != B.size())
          continue; // structural errors are schedule-legality's findings
        const MachineDesc *MD = nullptr;
        static const std::vector<MachineDesc> Models =
            MachineDesc::paperModels();
        for (const MachineDesc &M : Models)
          if (M.getName() == Inj.MachineName)
            MD = &M;
        if (!MD)
          continue;
        int Fetch = Inj.FetchWidth > 0 ? Inj.FetchWidth : MD->fetchWidth();
        Schedule S(Inj.Cycles, B, *MD);
        validate(B, *MD, S, Fetch, Out);
      }
    }
  }

private:
  void validate(const Block &B, const MachineDesc &MD, const Schedule &S,
                int Fetch, std::vector<LintFinding> &Out) {
    if (Fetch <= 0)
      return;
    int MaxCycle = 0;
    for (size_t I = 0; I < S.size(); ++I)
      MaxCycle = std::max(MaxCycle, S.cycleOf(I));
    for (int C = 0; C <= MaxCycle; ++C) {
      int Total = 0;
      for (size_t I = 0; I < S.size(); ++I) {
        if (S.cycleOf(I) != C)
          continue;
        ++Total;
        if (Total != Fetch + 1)
          continue;
        LintFinding Fd = makeFinding(
            DiagCode::LintResourceOversub, name(), B, static_cast<int>(I),
            "fetch width oversubscribed: more than " +
                std::to_string(Fetch) + " operations issue in cycle " +
                std::to_string(C) + " on machine '" + MD.getName() + "'");
        auto W = std::make_shared<LintWitness>();
        W->Kind = LintWitness::Expect::ScheduleRecount;
        W->Solved = true;
        W->SchedBlock = B.getName();
        W->Path.push_back(B.getName());
        for (size_t J = 0; J < S.size(); ++J)
          W->SchedCycles.push_back(S.cycleOf(J));
        W->SchedCycle = C;
        W->SchedUnit = -1;
        W->SchedCap = Fetch;
        Fd.Witness = std::move(W);
        Out.push_back(std::move(Fd));
      }
    }
  }
};

} // namespace

std::unique_ptr<LintPass> cpr::lint_detail::makeDeadUnderPredicatePass() {
  return std::make_unique<DeadUnderPredicatePass>();
}
std::unique_ptr<LintPass> cpr::lint_detail::makeRedundantCompensationPass() {
  return std::make_unique<RedundantCompensationPass>();
}
std::unique_ptr<LintPass> cpr::lint_detail::makeUninitReadPass() {
  return std::make_unique<UninitReadPass>();
}
std::unique_ptr<LintPass> cpr::lint_detail::makeResourceOversubscriptionPass() {
  return std::make_unique<ResourceOversubscriptionPass>();
}
