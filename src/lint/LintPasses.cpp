//===- lint/LintPasses.cpp - The five built-in checks -----------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The built-in checks (docs/LINT.md). Each encodes one of the paper's
/// structural invariants as an exact BDD proof over the PQS predicate
/// expressions of the block under inspection; on BDD node-budget
/// exhaustion a check silently skips the obligation it cannot decide
/// (silence is not a proof, findings are).
///
/// The CPR-specific checks recognize transformed structure post hoc: a
/// *bypass* is a branch whose resolved target is a compensation block, and
/// its *lookaheads* are the earlier cmpps accumulating the branch predicate
/// through wired-or actions (the paper's fully-resolved off-trace
/// predicate), with the wired-and twin forming the on-trace FRP. To relate
/// the lookahead conditions with the original compares re-executed in the
/// compensation block, checks build a synthetic *path block* -- the
/// on-trace prefix up to the bypass followed by the compensation code,
/// which is exactly the instruction sequence an off-trace execution
/// retires -- and run PQS over it, so value numbering assigns the same
/// atom to a lookahead and to the re-executed original compare whenever
/// their sources are provably the same values.
///
//===----------------------------------------------------------------------===//

#include "lint/LintInternal.h"

#include "analysis/CFG.h"
#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "ir/CmppAction.h"
#include "lint/Witness.h"
#include "sched/ListScheduler.h"

#include <string>
#include <vector>

using namespace cpr;
using namespace cpr::lint_detail;

namespace cpr {
namespace lint_detail {

//===----------------------------------------------------------------------===//
// CPR structure recognition
//===----------------------------------------------------------------------===//

std::vector<Bypass> findBypasses(const Function &F, const Block &B) {
  std::vector<Bypass> Out;
  const std::vector<Operation> &Ops = B.ops();
  for (size_t I = 0; I < Ops.size(); ++I) {
    if (!Ops[I].isBranch())
      continue;
    BlockId Target = resolveBranchTarget(B, I);
    const Block *Comp = Target == InvalidBlockId ? nullptr : F.blockById(Target);
    if (!Comp || !Comp->isCompensation())
      continue;
    Bypass BP;
    BP.BranchIdx = I;
    BP.Comp = Comp;
    BP.OffPred = Ops[I].branchPred();
    BP.OnPred = Reg();
    bool OnConsistent = true;
    for (size_t J = 0; J < I; ++J) {
      if (!Ops[J].isCmpp())
        continue;
      bool Accumulates = false;
      for (const DefSlot &D : Ops[J].defs())
        if (D.R == BP.OffPred && isWiredOrAction(D.Act))
          Accumulates = true;
      if (!Accumulates)
        continue;
      BP.Lookaheads.push_back(J);
      for (const DefSlot &D : Ops[J].defs())
        if (isWiredAndAction(D.Act)) {
          if (!BP.OnPred.isValid())
            BP.OnPred = D.R;
          else if (BP.OnPred != D.R)
            OnConsistent = false;
        }
    }
    if (!OnConsistent)
      BP.OnPred = Reg();
    if (!BP.Lookaheads.empty())
      BP.FirstLookahead = BP.Lookaheads.front();
    Out.push_back(std::move(BP));
  }
  return Out;
}

Block makePathBlock(const Block &B, const Bypass &BP) {
  Block Path(B.getId(), B.getName() + ".offtrace-path");
  for (size_t I = 0; I <= BP.BranchIdx; ++I)
    Path.ops().push_back(B.ops()[I]);
  for (const Operation &Op : BP.Comp->ops())
    Path.ops().push_back(Op);
  return Path;
}

LintFinding makeFinding(DiagCode Code, const char *Check, const Block &B,
                        int OpIdx, std::string Message, DiagSeverity Sev) {
  LintFinding F;
  F.Severity = Sev;
  F.Code = Code;
  F.Check = Check;
  F.Block = B.getName();
  if (OpIdx >= 0 && static_cast<size_t>(OpIdx) < B.size()) {
    F.Op = B.ops()[OpIdx].getId();
    F.OpIndex = OpIdx;
  }
  F.Message = std::move(Message);
  return F;
}

/// OR of the conditions under which the exits of the compensation portion
/// of \p Path (indices > BP.BranchIdx) leave the program or the block:
/// branch taken conditions plus halt execution conditions. Trap does not
/// count -- reaching it means the off-trace path lost an exit.
BDD::NodeRef compExitCond(RegionPQS &PQS, const Block &Path,
                          const Bypass &BP) {
  BDD::NodeRef Cond = BDD::False;
  for (size_t K = BP.BranchIdx + 1; K < Path.size(); ++K) {
    const Operation &Op = Path.ops()[K];
    BDD::NodeRef E = BDD::Invalid;
    if (Op.isBranch())
      E = PQS.takenExpr(K);
    else if (Op.getOpcode() == Opcode::Halt)
      E = PQS.execExpr(K);
    else
      continue;
    Cond = PQS.bdd().mkOr(Cond, E);
    if (!PQS.bdd().isValid(Cond))
      return BDD::Invalid;
  }
  return Cond;
}

BDD::NodeRef writeCond(RegionPQS &PQS, const Operation &Op, size_t OpIdx,
                       Reg R) {
  BDD::NodeRef Cond = BDD::False;
  for (const DefSlot &D : Op.defs()) {
    if (D.R != R)
      continue;
    BDD::NodeRef E;
    if (D.Act == CmppAction::UN || D.Act == CmppAction::UC)
      E = BDD::True; // unconditional cmpp targets write under a false guard
    else if (isWiredAction(D.Act))
      continue;
    else
      E = PQS.guardExpr(OpIdx);
    Cond = PQS.bdd().mkOr(Cond, E);
  }
  return Cond;
}

BDD::NodeRef dispatchCond(RegionPQS &PQS, const Block &B, size_t AnchorIdx,
                          size_t ExceptIdx) {
  BDD &Mgr = PQS.bdd();
  BDD::NodeRef Cond = reachCond(PQS, B, AnchorIdx, ExceptIdx);
  for (size_t I = 0; I < AnchorIdx && I < B.size(); ++I) {
    Opcode OC = B.ops()[I].getOpcode();
    if (OC != Opcode::Halt && OC != Opcode::Trap)
      continue;
    Cond = Mgr.mkAnd(Cond, Mgr.mkNot(PQS.execExpr(I)));
    if (!Mgr.isValid(Cond))
      return BDD::Invalid;
  }
  return Cond;
}

} // namespace lint_detail
} // namespace cpr

namespace {

/// True when the bypass path through \p Comp can read the value register
/// \p R holds at the bypass point. Sharper than liveIn(Comp): the trailing
/// trap keeps every observable register live in the dataflow sense, but
/// frp-consistency separately proves the trap unreachable, so a value
/// only matters off-trace if a compensation op reads it, an exit leaves
/// with it live, or a halt makes it observable first.
bool compNeedsValue(const Function &F, const Liveness &LV, const Block &Comp,
                    Reg R) {
  for (size_t K = 0; K < Comp.size(); ++K) {
    const Operation &Op = Comp.ops()[K];
    if (Op.getOpcode() == Opcode::Trap)
      continue;
    if (Op.readsReg(R))
      return true;
    if (Op.getOpcode() == Opcode::Halt) {
      for (Reg Obs : F.observableRegs())
        if (Obs == R)
          return true;
      continue;
    }
    if (Op.isBranch()) {
      BlockId T = resolveBranchTarget(Comp, K);
      if (T == InvalidBlockId || !F.blockById(T) || LV.liveIn(T).count(R))
        return true; // unknown target: stay conservative
      continue;      // fall-through keeps scanning
    }
    // Only an unguarded redefinition kills the incoming value on every
    // remaining off-trace path.
    if (Op.getGuard().isTruePred() && Op.definesReg(R))
      return false;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Check 1: frp-consistency
//===----------------------------------------------------------------------===//

class FRPConsistencyPass : public LintPass {
public:
  const char *name() const override { return "frp-consistency"; }
  const char *description() const override {
    return "bypass FRP covers the re-executed branch conditions; on-/off-"
           "trace FRPs disjoint and exhaustive (paper Section 4)";
  }

  void run(LintContext &Ctx, std::vector<LintFinding> &Out) override {
    const Function &F = Ctx.func();
    for (size_t L = 0; L < F.numBlocks(); ++L) {
      const Block &B = F.block(L);
      if (B.isCompensation())
        continue;
      for (const Bypass &BP : findBypasses(F, B)) {
        if (BP.Lookaheads.empty()) {
          LintFinding Fd = makeFinding(
              DiagCode::LintFRP, name(), B, static_cast<int>(BP.BranchIdx),
              "branch to compensation block @" + BP.Comp->getName() +
                  " is not guarded by a recognizable wired-or FRP "
                  "accumulation",
              DiagSeverity::Warning);
          RegionPQS BQ(F, B);
          BDD::NodeRef V = BQ.bdd().mkAnd(
              BQ.takenExpr(BP.BranchIdx),
              dispatchCond(BQ, B, BP.BranchIdx, B.size()));
          Fd.Witness =
              buildWitness(F, B, BQ, V, LintWitness::Expect::BranchTaken);
          Fd.Witness->AnchorOp = B.ops()[BP.BranchIdx].getId();
          Out.push_back(std::move(Fd));
          continue;
        }
        Block Path = makePathBlock(B, BP);
        RegionPQS PQS(F, Path);
        BDD &Mgr = PQS.bdd();
        BDD::NodeRef Reach =
            dispatchCond(PQS, Path, BP.BranchIdx, Path.size());

        // Soundness: everything the compensation block does must be
        // justified by the bypass -- the OR of the re-executed branch
        // conditions may not exceed the bypass predicate. (The converse
        // direction, completeness, is compensation-completeness's job.)
        BDD::NodeRef OffTaken = PQS.takenExpr(BP.BranchIdx);
        BDD::NodeRef Exits = compExitCond(PQS, Path, BP);
        if (Mgr.isValid(OffTaken) && Mgr.isValid(Exits) &&
            !PQS.implies(Exits, OffTaken)) {
          LintFinding Fd = makeFinding(
              DiagCode::LintFRP, name(), B, static_cast<int>(BP.BranchIdx),
              "off-trace FRP is not the OR of the collapsed branch "
              "conditions: compensation block @" + BP.Comp->getName() +
                  " can take an exit on executions that do not satisfy "
                  "the bypass predicate " + BP.OffPred.str());
          // An execution where some re-executed exit fires while the
          // bypass does not take; replay on the path function, where the
          // compensation code is reachable without the bypass.
          BDD::NodeRef V =
              Mgr.mkAnd(Mgr.mkAnd(Exits, Mgr.mkNot(OffTaken)), Reach);
          Fd.Witness = buildWitness(F, Path, PQS, V,
                                    LintWitness::Expect::ExitNotBypass);
          LintWitness &W = *Fd.Witness;
          W.AnchorOp = B.ops()[BP.BranchIdx].getId();
          for (size_t K = BP.BranchIdx + 1; K < Path.size(); ++K)
            if (Path.ops()[K].isBranch() ||
                Path.ops()[K].getOpcode() == Opcode::Halt)
              W.AuxOps.push_back(Path.ops()[K].getId());
          W.UsePathFunction = true;
          W.PathBlock = B.getName();
          W.PathBranchIdx = static_cast<int>(BP.BranchIdx);
          W.PathComp = BP.Comp->getName();
          Out.push_back(std::move(Fd));
        }

        // Disjointness and exhaustiveness of the on-/off-trace pair at the
        // bypass point (wired-and vs wired-or twins of the lookaheads).
        if (!BP.OnPred.isValid())
          continue;
        BDD::NodeRef OnE = PQS.predValueAfter(BP.BranchIdx, BP.OnPred);
        BDD::NodeRef OffE = PQS.predValueAfter(BP.BranchIdx, BP.OffPred);
        if (Mgr.isValid(OnE) && Mgr.isValid(OffE) &&
            !PQS.disjoint(OnE, OffE)) {
          LintFinding Fd = makeFinding(
              DiagCode::LintFRP, name(), B, static_cast<int>(BP.BranchIdx),
              "on-trace FRP " + BP.OnPred.str() + " and off-trace FRP " +
                  BP.OffPred.str() + " are not disjoint at the bypass");
          BDD::NodeRef V = Mgr.mkAnd(Mgr.mkAnd(OnE, OffE), Reach);
          Fd.Witness =
              buildWitness(F, Path, PQS, V, LintWitness::Expect::PredValues);
          Fd.Witness->AnchorOp = B.ops()[BP.BranchIdx].getId();
          Fd.Witness->WatchRegs = {BP.OnPred, BP.OffPred};
          Fd.Witness->ExpectVals = {1, 1};
          Out.push_back(std::move(Fd));
        }
        BDD::NodeRef Root = PQS.guardExpr(BP.FirstLookahead);
        BDD::NodeRef Either = Mgr.mkOr(OnE, OffE);
        if (Mgr.isValid(Root) && Mgr.isValid(Either) &&
            !PQS.implies(Root, Either)) {
          LintFinding Fd = makeFinding(
              DiagCode::LintFRP, name(), B, static_cast<int>(BP.BranchIdx),
              "on-trace FRP " + BP.OnPred.str() + " and off-trace FRP " +
                  BP.OffPred.str() +
                  " do not exhaust the root predicate at the bypass");
          BDD::NodeRef V = Mgr.mkAnd(
              Mgr.mkAnd(Root, Mgr.mkAnd(Mgr.mkNot(OnE), Mgr.mkNot(OffE))),
              Reach);
          Fd.Witness =
              buildWitness(F, Path, PQS, V, LintWitness::Expect::PredValues);
          Fd.Witness->AnchorOp = B.ops()[BP.BranchIdx].getId();
          Fd.Witness->WatchRegs = {BP.OnPred, BP.OffPred};
          Fd.Witness->ExpectVals = {0, 0};
          Out.push_back(std::move(Fd));
        }
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// Check 2: use-before-def
//===----------------------------------------------------------------------===//

class UseBeforeDefPass : public LintPass {
public:
  const char *name() const override { return "use-before-def"; }
  const char *description() const override {
    return "a register read under predicate p is defined wherever p can "
           "be true (predicate-aware dataflow, [JS96])";
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
        std::vector<Reg> Reads;
        if (!Op.getGuard().isTruePred())
          Reads.push_back(Op.getGuard());
        for (const Operand &S : Op.srcs())
          if (S.isReg() && !S.getReg().isTruePred())
            Reads.push_back(S.getReg());
        for (Reg R : Reads) {
          // Registers whose definitions can reach the block entry (from
          // other blocks or around a loop) and registers never defined
          // before the use (function inputs by convention) are exempt;
          // the check targets *partial* in-block definitions whose
          // predicate is weaker than the use's.
          if (Ctx.defReachesEntry(R, L))
            continue;
          BDD::NodeRef DefCond = BDD::False;
          bool AnyDef = false;
          for (size_t J = 0; J < I; ++J)
            if (B.ops()[J].definesReg(R)) {
              AnyDef = true;
              DefCond =
                  Mgr.mkOr(DefCond, writeCond(PQS, B.ops()[J], J, R));
            }
          if (!AnyDef)
            continue;
          BDD::NodeRef UseE = PQS.guardExpr(I);
          if (!Mgr.isValid(UseE) || !Mgr.isValid(DefCond))
            continue;
          if (!PQS.implies(UseE, DefCond)) {
            LintFinding Fd = makeFinding(
                DiagCode::LintUseBeforeDef, name(), B, static_cast<int>(I),
                "register " + R.str() +
                    " is read under a predicate that can be true where no "
                    "prior definition of it has executed",
                DiagSeverity::Error);
            BDD::NodeRef V =
                Mgr.mkAnd(Mgr.mkAnd(UseE, Mgr.mkNot(DefCond)),
                          dispatchCond(PQS, B, I, B.size()));
            Fd.Witness = buildWitness(F, B, PQS, V,
                                      LintWitness::Expect::UseWithoutDef);
            Fd.Witness->AnchorOp = Op.getId();
            // Wired cmpps legitimately write under a false guard; only
            // plain prior definitions count as "a definition executed".
            for (size_t J = 0; J < I; ++J)
              if (!B.ops()[J].isCmpp() && B.ops()[J].definesReg(R))
                Fd.Witness->AuxOps.push_back(B.ops()[J].getId());
            Out.push_back(std::move(Fd));
          }
        }
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// Check 3: speculation-safety
//===----------------------------------------------------------------------===//

class SpeculationSafetyPass : public LintPass {
public:
  const char *name() const override { return "speculation-safety"; }
  const char *description() const override {
    return "unguarded operations in the bypass window are side-effect "
           "free and clobber nothing the bypass path needs (Section 6)";
  }

  void run(LintContext &Ctx, std::vector<LintFinding> &Out) override {
    const Function &F = Ctx.func();
    const Liveness &LV = Ctx.liveness();
    for (size_t L = 0; L < F.numBlocks(); ++L) {
      const Block &B = F.block(L);
      if (B.isCompensation())
        continue;
      for (const Bypass &BP : findBypasses(F, B)) {
        if (BP.Lookaheads.empty())
          continue;
        LiveSet BlockLive = LV.liveIn(B.getId());
        // The off-trace path PQS, built on the first finding: witnesses
        // need the bypass-taken condition and the compensation guards.
        Block Path = makePathBlock(B, BP);
        std::unique_ptr<RegionPQS> PPQ;
        auto PathPQS = [&]() -> RegionPQS & {
          if (!PPQ)
            PPQ.reset(new RegionPQS(F, Path));
          return *PPQ;
        };
        // The bypass window: between the first lookahead (where the
        // collapsed branches conceptually begin) and the bypass branch.
        for (size_t I = BP.FirstLookahead; I < BP.BranchIdx; ++I) {
          const Operation &Op = B.ops()[I];
          if (Op.isCmpp() || Op.isControl() || Op.getOpcode() == Opcode::Pbr)
            continue;
          if (!Op.getGuard().isTruePred())
            continue; // still guarded: not (or faithfully) promoted
          if (Op.hasSideEffects()) {
            LintFinding Fd = makeFinding(
                DiagCode::LintSpeculation, name(), B, static_cast<int>(I),
                "side-effecting operation executes unguarded inside the "
                "bypass window; it also runs on executions that take the "
                "bypass to @" + BP.Comp->getName());
            RegionPQS &Q = PathPQS();
            BDD::NodeRef V = Q.bdd().mkAnd(
                Q.takenExpr(BP.BranchIdx),
                dispatchCond(Q, Path, BP.BranchIdx, Path.size()));
            Fd.Witness = buildWitness(F, Path, Q, V,
                                      LintWitness::Expect::BranchTaken);
            Fd.Witness->AnchorOp = B.ops()[BP.BranchIdx].getId();
            Fd.Witness->Path.push_back(BP.Comp->getName());
            Out.push_back(std::move(Fd));
            continue;
          }
          for (const DefSlot &D : Op.defs()) {
            Reg R = D.R;
            if (!compNeedsValue(F, LV, *BP.Comp, R))
              continue; // the bypass path never reads it
            if (Op.readsReg(R))
              continue; // self-update: the path sees the updated value,
                        // exactly as the re-executed compares expect
            bool HadValue = BlockLive.count(R) != 0;
            for (size_t J = 0; J < I && !HadValue; ++J)
              if (B.ops()[J].definesReg(R))
                HadValue = true;
            if (HadValue) {
              LintFinding Fd = makeFinding(
                  DiagCode::LintSpeculation, name(), B,
                  static_cast<int>(I),
                  "promoted operation overwrites " + R.str() +
                      ", whose previous value is still live on the bypass "
                      "path through @" + BP.Comp->getName());
              RegionPQS &Q = PathPQS();
              BDD &QM = Q.bdd();
              // First off-trace reader of R, if any: witness an execution
              // where the bypass takes, the clobber ran first, and the
              // compensation code reads the clobbered register.
              int Reader = -1;
              for (size_t K = 0; K < BP.Comp->size(); ++K)
                if (BP.Comp->ops()[K].getOpcode() != Opcode::Trap &&
                    BP.Comp->ops()[K].readsReg(R)) {
                  Reader = static_cast<int>(K);
                  break;
                }
              if (Reader >= 0) {
                size_t PathIdx =
                    BP.BranchIdx + 1 + static_cast<size_t>(Reader);
                BDD::NodeRef V = QM.mkAnd(
                    QM.mkAnd(Q.takenExpr(BP.BranchIdx),
                             Q.guardExpr(PathIdx)),
                    dispatchCond(Q, Path, PathIdx, BP.BranchIdx));
                Fd.Witness = buildWitness(
                    F, Path, Q, V, LintWitness::Expect::ClobberThenUse);
                Fd.Witness->AnchorOp = BP.Comp->ops()[Reader].getId();
                Fd.Witness->AuxOps.push_back(Op.getId());
              } else {
                BDD::NodeRef V = QM.mkAnd(
                    Q.takenExpr(BP.BranchIdx),
                    dispatchCond(Q, Path, BP.BranchIdx, Path.size()));
                Fd.Witness = buildWitness(F, Path, Q, V,
                                          LintWitness::Expect::BranchTaken);
                Fd.Witness->AnchorOp = B.ops()[BP.BranchIdx].getId();
              }
              Fd.Witness->Path.push_back(BP.Comp->getName());
              Out.push_back(std::move(Fd));
            }
          }
        }
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// Check 4: compensation-completeness
//===----------------------------------------------------------------------===//

class CompensationCompletenessPass : public LintPass {
public:
  const char *name() const override { return "compensation-completeness"; }
  const char *description() const override {
    return "every exit collapsed into a bypass is re-established off-"
           "trace, with every register it needs defined (Section 5)";
  }

  void run(LintContext &Ctx, std::vector<LintFinding> &Out) override {
    const Function &F = Ctx.func();
    const Liveness &LV = Ctx.liveness();
    for (size_t L = 0; L < F.numBlocks(); ++L) {
      const Block &B = F.block(L);
      if (B.isCompensation())
        continue;
      for (const Bypass &BP : findBypasses(F, B)) {
        if (BP.Lookaheads.empty())
          continue;
        Block Path = makePathBlock(B, BP);
        RegionPQS PQS(F, Path);
        BDD &Mgr = PQS.bdd();
        BDD::NodeRef OffTaken = PQS.takenExpr(BP.BranchIdx);
        BDD::NodeRef Exits = compExitCond(PQS, Path, BP);

        // Completeness: whenever the bypass is taken, some re-executed
        // exit must fire; otherwise the off-trace path falls through to
        // the trailing trap (the planted compensation-skip defect).
        if (Mgr.isValid(OffTaken) && Mgr.isValid(Exits) &&
            !PQS.implies(OffTaken, Exits)) {
          int Anchor = BP.Comp->empty()
                           ? -1
                           : static_cast<int>(BP.Comp->size()) - 1;
          LintFinding Fd = makeFinding(
              DiagCode::LintCompensation, name(), *BP.Comp, Anchor,
              "bypass predicate " + BP.OffPred.str() +
                  " can be true with no re-established exit taken: the "
                  "off-trace path loses the branch closure moved on its "
                  "behalf");
          // An execution taking the bypass with every re-executed exit
          // dead falls through to the compensation block's trailing trap.
          BDD::NodeRef V = Mgr.mkAnd(
              Mgr.mkAnd(OffTaken, Mgr.mkNot(Exits)),
              dispatchCond(PQS, Path, BP.BranchIdx, Path.size()));
          Fd.Witness =
              buildWitness(F, Path, PQS, V, LintWitness::Expect::Trapped);
          Fd.Witness->AnchorOp = Fd.Op;
          Fd.Witness->Path.push_back(BP.Comp->getName());
          Out.push_back(std::move(Fd));
        }

        // Definition completeness: every register live at an off-trace
        // exit must be defined along the off-trace path under the exit's
        // condition (or be available at the region entry already).
        for (size_t K = BP.BranchIdx + 1; K < Path.size(); ++K) {
          const Operation &Op = Path.ops()[K];
          if (!Op.isBranch() && Op.getOpcode() != Opcode::Halt)
            continue;
          BDD::NodeRef ExitE =
              Op.isBranch() ? PQS.takenExpr(K) : PQS.execExpr(K);
          if (!Mgr.isValid(ExitE))
            continue;
          int CompIdx = static_cast<int>(K - (BP.BranchIdx + 1));
          for (Reg R : sorted(LV.liveAtExit(Path, K))) {
            // Same conventions as use-before-def: the true predicate is
            // always available, registers defined in predecessor blocks
            // (or around a loop) arrive at the region entry, and a
            // register with no definition on the path at all is a region
            // input. The target is a *partial* re-establishment -- a def
            // present on the path but under too weak a predicate.
            if (R.isTruePred() || Ctx.defReachesEntry(R, L))
              continue;
            BDD::NodeRef DefCond = BDD::False;
            bool AnyDef = false;
            for (size_t J = 0; J < K; ++J)
              if (Path.ops()[J].definesReg(R)) {
                AnyDef = true;
                DefCond =
                    Mgr.mkOr(DefCond, writeCond(PQS, Path.ops()[J], J, R));
              }
            if (!AnyDef || !Mgr.isValid(DefCond))
              continue;
            if (!PQS.implies(ExitE, DefCond)) {
              LintFinding Fd = makeFinding(
                  DiagCode::LintCompensation, name(), *BP.Comp, CompIdx,
                  "register " + R.str() +
                      " is live at this off-trace exit but is not "
                      "re-established on the off-trace path");
              BDD::NodeRef V = Mgr.mkAnd(
                  Mgr.mkAnd(ExitE, Mgr.mkNot(DefCond)),
                  Mgr.mkAnd(PQS.takenExpr(BP.BranchIdx),
                            dispatchCond(PQS, Path, K, BP.BranchIdx)));
              Fd.Witness = buildWitness(F, Path, PQS, V,
                                        LintWitness::Expect::UseWithoutDef);
              Fd.Witness->AnchorOp = Path.ops()[K].getId();
              for (size_t J = 0; J < K; ++J)
                if (!Path.ops()[J].isCmpp() && Path.ops()[J].definesReg(R))
                  Fd.Witness->AuxOps.push_back(Path.ops()[J].getId());
              Fd.Witness->Path.push_back(BP.Comp->getName());
              Out.push_back(std::move(Fd));
            }
          }
        }
      }
    }
  }

private:
  /// The registers of \p S in register order (the order findings are
  /// reported in), not the numbering order the view iterates in.
  static std::vector<Reg> sorted(LiveSet S) {
    std::vector<Reg> V(S.begin(), S.end());
    std::sort(V.begin(), V.end());
    return V;
  }
};

//===----------------------------------------------------------------------===//
// Check 5: schedule-legality
//===----------------------------------------------------------------------===//

class ScheduleLegalityPass : public LintPass {
public:
  const char *name() const override { return "schedule-legality"; }
  const char *description() const override {
    return "emitted schedules respect dependence latencies and per-unit "
           "resource limits of the machine model (Section 7)";
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
        validate(B, DG, MD, S, Out);
      }
      for (const InjectedSchedule &Inj : Ctx.options().Schedules) {
        if (Inj.BlockName != B.getName())
          continue;
        const MachineDesc *MD = nullptr;
        static const std::vector<MachineDesc> Models =
            MachineDesc::paperModels();
        for (const MachineDesc &M : Models)
          if (M.getName() == Inj.MachineName)
            MD = &M;
        if (!MD) {
          LintFinding Fd = makeFinding(
              DiagCode::LintSchedule, name(), B, -1,
              "pinned schedule names unknown machine '" + Inj.MachineName +
                  "'");
          Fd.Witness = directiveWitness();
          Out.push_back(std::move(Fd));
          continue;
        }
        if (Inj.Cycles.size() != B.size()) {
          LintFinding Fd = makeFinding(
              DiagCode::LintSchedule, name(), B, -1,
              "pinned schedule has " + std::to_string(Inj.Cycles.size()) +
                  " cycles for a block of " + std::to_string(B.size()) +
                  " operations");
          Fd.Witness = directiveWitness();
          Out.push_back(std::move(Fd));
          continue;
        }
        DepGraph DG(F, B, *MD, PQS, LV);
        Schedule S(Inj.Cycles, B, *MD);
        validate(B, DG, *MD, S, Out);
      }
    }
  }

private:
  static const char *unitName(UnitKind K) {
    switch (K) {
    case UnitKind::Int:
      return "integer";
    case UnitKind::Float:
      return "float";
    case UnitKind::Mem:
      return "memory";
    case UnitKind::Branch:
      return "branch";
    }
    return "unknown";
  }

  /// A solved ScheduleRecount witness carrying the full schedule under
  /// test; callers fill the specific latency or occupancy claim.
  static std::shared_ptr<LintWitness> recountWitness(const Block &B,
                                                     const Schedule &S) {
    auto W = std::make_shared<LintWitness>();
    W->Kind = LintWitness::Expect::ScheduleRecount;
    W->Solved = true;
    W->SchedBlock = B.getName();
    W->Path.push_back(B.getName());
    for (size_t I = 0; I < S.size(); ++I)
      W->SchedCycles.push_back(S.cycleOf(I));
    return W;
  }

  /// For findings about a malformed pinned-schedule directive: there is no
  /// schedule to recount, so the witness stays honestly unsolved.
  static std::shared_ptr<LintWitness> directiveWitness() {
    auto W = std::make_shared<LintWitness>();
    W->Kind = LintWitness::Expect::ScheduleRecount;
    W->UnsolvedWhy =
        "malformed pinned-schedule directive; nothing to recount";
    return W;
  }

  void validate(const Block &B, const DepGraph &DG, const MachineDesc &MD,
                const Schedule &S, std::vector<LintFinding> &Out) {
    for (const DepEdge &E : DG.edges())
      if (S.cycleOf(E.To) < S.cycleOf(E.From) + E.Latency) {
        LintFinding Fd = makeFinding(
            DiagCode::LintSchedule, name(), B, static_cast<int>(E.To),
            "operation issues in cycle " + std::to_string(S.cycleOf(E.To)) +
                " before its " + depKindName(E.Kind) + " dependence on op %" +
                std::to_string(B.ops()[E.From].getId()) + " (cycle " +
                std::to_string(S.cycleOf(E.From)) + " + latency " +
                std::to_string(E.Latency) + ") is satisfied on machine '" +
                MD.getName() + "'");
        auto W = recountWitness(B, S);
        W->SchedFrom = static_cast<int>(E.From);
        W->SchedTo = static_cast<int>(E.To);
        W->SchedLatency = E.Latency;
        Fd.Witness = std::move(W);
        Out.push_back(std::move(Fd));
      }
    int MaxCycle = 0;
    for (size_t I = 0; I < S.size(); ++I)
      MaxCycle = std::max(MaxCycle, S.cycleOf(I));
    for (int C = 0; C <= MaxCycle; ++C) {
      int PerKind[4] = {0, 0, 0, 0};
      int Total = 0;
      for (size_t I = 0; I < S.size(); ++I) {
        if (S.cycleOf(I) != C)
          continue;
        ++Total;
        UnitKind K = opcodeUnit(B.ops()[I].getOpcode());
        ++PerKind[static_cast<unsigned>(K)];
        if (MD.isSequential()) {
          if (Total == 2) {
            LintFinding Fd = makeFinding(
                DiagCode::LintSchedule, name(), B, static_cast<int>(I),
                "sequential machine issues more than one operation in "
                "cycle " + std::to_string(C));
            auto W = recountWitness(B, S);
            W->SchedCycle = C;
            W->SchedUnit = -1;
            W->SchedCap = 1;
            Fd.Witness = std::move(W);
            Out.push_back(std::move(Fd));
          }
          continue;
        }
        int Cap = MD.unitCount(K);
        if (PerKind[static_cast<unsigned>(K)] == Cap + 1) {
          LintFinding Fd = makeFinding(
              DiagCode::LintSchedule, name(), B, static_cast<int>(I),
              std::string("issue slot oversubscribed: more than ") +
                  std::to_string(Cap) + " " + unitName(K) +
                  "-unit operations in cycle " + std::to_string(C) +
                  " on machine '" + MD.getName() + "'");
          auto W = recountWitness(B, S);
          W->SchedCycle = C;
          W->SchedUnit = static_cast<int>(K);
          W->SchedCap = Cap;
          Fd.Witness = std::move(W);
          Out.push_back(std::move(Fd));
        }
      }
    }
  }
};

} // namespace

void cpr::addBuiltinLintPasses(LintDriver &D) {
  D.addPass(std::make_unique<FRPConsistencyPass>());
  D.addPass(std::make_unique<UseBeforeDefPass>());
  D.addPass(std::make_unique<SpeculationSafetyPass>());
  D.addPass(std::make_unique<CompensationCompletenessPass>());
  D.addPass(std::make_unique<ScheduleLegalityPass>());
  D.addPass(lint_detail::makeDeadUnderPredicatePass());
  D.addPass(lint_detail::makeRedundantCompensationPass());
  D.addPass(lint_detail::makeUninitReadPass());
  D.addPass(lint_detail::makeResourceOversubscriptionPass());
}
