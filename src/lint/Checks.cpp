//===- lint/Checks.cpp - The nine built-in checks -------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The built-in checks (docs/LINT.md), grouped by what they inspect:
///
///  - bypass checks: frp-consistency, speculation-safety,
///    compensation-completeness, redundant-compensation;
///  - register checks: use-before-def, dead-under-predicate, uninit-read;
///  - schedule checks: schedule-legality, resource-oversubscription.
///
/// Each check is a plain function; lintChecks() lists them in canonical
/// order and LintDriver::run walks that table. Each encodes one of the
/// paper's structural invariants as an exact BDD proof over the PQS
/// predicate expressions of the block under inspection; on BDD
/// node-budget exhaustion a check silently skips the obligation it cannot
/// decide (silence is not a proof, findings are).
///
/// Every fact a check needs comes from one LintContext per run, which
/// builds it the first time a check asks: function-level dataflow, each
/// block's RegionPQS, its recognized bypasses, and its schedules. Sharing
/// cannot change an answer: BDDs are hash-consed and canonical, so a
/// shared manager answers implies/disjoint/satOne exactly as a fresh one,
/// and a DepGraph sees its machine only through latencies, which depend on
/// the opcode and the branch latency alone.
///
/// The bypass checks recognize CPR-transformed structure post hoc: a
/// *bypass* is a branch whose resolved target is a compensation block, and
/// its *lookaheads* are the earlier cmpps accumulating the branch predicate
/// through wired-or actions (the paper's fully-resolved off-trace
/// predicate), with the wired-and twin forming the on-trace FRP. To relate
/// the lookahead conditions with the original compares re-executed in the
/// compensation block, checks reason over a synthetic *path block* -- the
/// on-trace prefix up to the bypass followed by the compensation code,
/// which is exactly the instruction sequence an off-trace execution
/// retires -- so PQS value numbering assigns the same atom to a lookahead
/// and to the re-executed original compare whenever their sources are
/// provably the same values.
///
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "analysis/AnalysisCache.h"
#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "interp/Interpreter.h"
#include "ir/CmppAction.h"
#include "lint/Witness.h"
#include "sched/ListScheduler.h"

#include <algorithm>
#include <climits>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace cpr;

namespace {

/// One recognized bypass branch of a CPR-transformed block.
struct Bypass {
  size_t BranchIdx;        ///< index of the bypass branch in its block
  const Block *Comp;       ///< the compensation block it targets
  Reg OffPred;             ///< the bypass branch predicate (off-trace FRP)
  Reg OnPred;              ///< the wired-and twin (on-trace FRP); may be
                           ///< invalid when the structure is unrecognized
  std::vector<size_t> Lookaheads; ///< cmpps accumulating OffPred wired-or
  size_t FirstLookahead = 0;
  /// With lookaheads: the off-trace path block and its PQS.
  std::optional<Block> Path;
  std::optional<RegionPQS> PathPQS;
};

/// One schedule of a block under test -- the list scheduler's for a
/// machine of LintOptions::Machines, or a pinned one -- or a pinned
/// directive that leaves nothing to validate.
struct BlockSchedule {
  /// The machine the schedule is for; null for a malformed directive.
  const MachineDesc *MD = nullptr;
  const DepGraph *DG = nullptr;
  Schedule S;
  /// Fetch width resource-oversubscription validates against.
  int Fetch = 0;
  /// The operations issuing in each distinct cycle, in block order.
  std::map<int, std::vector<size_t>> ByCycle;
  /// Malformed directive: why, and the op it names (-1 for none).
  std::string Malformed;
  int MalformedOp = -1;
};

/// Recognizes every bypass branch of \p B: a branch whose resolved target
/// is a compensation block, with its wired-or lookahead cmpps.
std::vector<Bypass> findBypasses(const Function &F, const Block &B) {
  std::vector<Bypass> Out;
  const std::vector<Operation> &Ops = B.ops();
  for (size_t I = 0; I < Ops.size(); ++I) {
    if (!Ops[I].isBranch())
      continue;
    BlockId Target = resolveBranchTarget(B, I);
    const Block *Comp =
        Target == InvalidBlockId ? nullptr : F.blockById(Target);
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

} // namespace

namespace cpr {

/// Per-run state handed to every check: the function, the options, and
/// every shared fact, each built the first time a check asks for it.
/// Liveness is borrowed from the caller's FunctionAnalyses when given, as
/// are its dependence graphs when they fit a machine; reaching definitions
/// are built here over its numbering. References handed out stay valid for
/// the whole run: per-block facts live in storage that is sized once and
/// never moves.
class LintContext {
public:
  LintContext(const Function &F, const LintOptions &Opts,
              FunctionAnalyses *Shared, const std::vector<RegBinding> *Inputs)
      : F(F), Opts(Opts), Shared(Shared), Inputs(Inputs),
        Blocks(F.numBlocks()) {}

  const Function &F;
  const LintOptions &Opts;
  /// Name of the running check; stamps every finding.
  const char *Check = "";

  /// A finding of the running check at op \p OpIdx of \p B (negative for
  /// block-level findings).
  LintFinding finding(DiagCode Code, const Block &B, int OpIdx,
                      std::string Message,
                      DiagSeverity Sev = DiagSeverity::Error) const {
    LintFinding Fd;
    Fd.Severity = Sev;
    Fd.Code = Code;
    Fd.Check = Check;
    Fd.Block = B.getName();
    if (OpIdx >= 0 && static_cast<size_t>(OpIdx) < B.size()) {
      Fd.Op = B.ops()[OpIdx].getId();
      Fd.OpIndex = OpIdx;
    }
    Fd.Message = std::move(Message);
    return Fd;
  }

  const Liveness &liveness() {
    if (Shared)
      return Shared->LV;
    if (!LV)
      LV.emplace(F);
    return *LV;
  }

  /// Cross-block reaching definitions, over the liveness numbering.
  const ReachingDefBlocks &reachingDefs() {
    if (!Reach)
      Reach.emplace(F, liveness().numbering());
    return *Reach;
  }

  /// Forward/intersection definite assignment, the uninit-read check's
  /// pruning accelerator.
  const DefiniteAssignment &definiteAssignment() {
    if (!Definite)
      Definite.emplace(F, reachingDefs().numbering());
    return *Definite;
  }

  /// True when a definition of \p R in some block can reach the entry of
  /// block \p LayoutIdx (including around loops). Reads of such registers
  /// are conservatively treated as initialized by use-before-def and
  /// compensation-completeness.
  bool defReachesEntry(Reg R, size_t LayoutIdx) {
    return reachingDefs().reachesEntry(R, LayoutIdx);
  }

  /// True when the caller declared \p R an environment-initialized input
  /// (an InitRegs binding: the kernel's arguments, a fuzz case's `; reg`
  /// directives, cprc's --reg flags). uninit-read treats such registers
  /// as defined at function entry even when the function also redefines
  /// them later (strcpy's cursor-bump pattern).
  bool isDeclaredInput(Reg R) const {
    if (!Inputs)
      return false;
    for (const RegBinding &B : *Inputs)
      if (B.R == R)
        return true;
    return false;
  }

  /// The PQS of the block at layout index \p L.
  RegionPQS &pqs(size_t L) {
    std::optional<RegionPQS> &Q = Blocks[L].PQS;
    if (!Q)
      Q.emplace(F, F.block(L));
    return *Q;
  }

  /// The bypasses of the block at layout index \p L, each recognized one
  /// with its path block and the path's PQS; none for a compensation
  /// block.
  std::vector<Bypass> &bypasses(size_t L) {
    std::optional<std::vector<Bypass>> &Out = Blocks[L].Bypasses;
    if (Out)
      return *Out;
    const Block &B = F.block(L);
    Out = B.isCompensation() ? std::vector<Bypass>() : findBypasses(F, B);
    // Built in place, now that the bypasses no longer move.
    for (Bypass &BP : *Out) {
      if (BP.Lookaheads.empty())
        continue;
      Block &Path = BP.Path.emplace(B.getId(), B.getName() + ".offtrace-path");
      for (size_t I = 0; I <= BP.BranchIdx; ++I)
        Path.ops().push_back(B.ops()[I]);
      for (const Operation &Op : BP.Comp->ops())
        Path.ops().push_back(Op);
      BP.PathPQS.emplace(F, Path);
    }
    return *Out;
  }

  /// The schedules of the non-empty block at layout index \p L: one list
  /// schedule per machine of the options, then the pinned schedules
  /// naming the block, in directive order.
  const std::vector<BlockSchedule> &schedules(size_t L) {
    std::optional<std::vector<BlockSchedule>> &Out = Blocks[L].Schedules;
    if (Out)
      return *Out;
    const Block &B = F.block(L);
    Out.emplace();
    for (const MachineDesc &MD : Opts.Machines) {
      const DepGraph &DG = *graphs(MD).graph(L);
      addSchedule(*Out, MD, DG, scheduleBlock(B, DG, MD), MD.fetchWidth());
    }
    for (const InjectedSchedule &Inj : Opts.Schedules) {
      if (Inj.BlockName != B.getName())
        continue;
      const MachineDesc *MD = MachineDesc::findPaperModel(Inj.MachineName);
      std::string Why;
      int Op = -1;
      if (!MD)
        Why = "pinned schedule names unknown machine '" + Inj.MachineName +
              "'";
      else if (Inj.Cycles.size() != B.size())
        Why = "pinned schedule has " + std::to_string(Inj.Cycles.size()) +
              " cycles for a block of " + std::to_string(B.size()) +
              " operations";
      else
        for (size_t I = 0; I < B.size() && Op < 0; ++I) {
          // The schedule's length, cycle + latency, must stay an int.
          int C = Inj.Cycles[I];
          if (C < 0 || C > INT_MAX - std::max(1, MD->latency(B.ops()[I]))) {
            Op = static_cast<int>(I);
            Why = "pinned schedule issues the operation in cycle " +
                  std::to_string(C) +
                  (C < 0 ? ", before the block starts"
                         : ", past the last cycle the machine can count");
          }
        }
      if (!Why.empty()) {
        BlockSchedule &BS = Out->emplace_back();
        BS.Malformed = std::move(Why);
        BS.MalformedOp = Op;
        continue;
      }
      const DepGraph &DG = *graphs(*MD).graph(L);
      addSchedule(*Out, *MD, DG, Schedule(Inj.Cycles, B, *MD),
                  Inj.FetchWidth > 0 ? Inj.FetchWidth : MD->fetchWidth());
    }
    return *Out;
  }

private:
  struct BlockFacts {
    std::optional<RegionPQS> PQS;
    std::optional<std::vector<Bypass>> Bypasses;
    std::optional<std::vector<BlockSchedule>> Schedules;
  };

  static void addSchedule(std::vector<BlockSchedule> &Out,
                          const MachineDesc &MD, const DepGraph &DG,
                          Schedule S, int Fetch) {
    BlockSchedule &BS = Out.emplace_back();
    BS.MD = &MD;
    BS.DG = &DG;
    BS.S = std::move(S);
    BS.Fetch = Fetch;
    for (size_t I = 0; I < BS.S.size(); ++I)
      BS.ByCycle[BS.S.cycleOf(I)].push_back(I);
  }

  /// Dependence graphs for \p MD's branch latency: the caller's when they
  /// fit, else one set per branch latency built here.
  const BlockGraphs &graphs(const MachineDesc &MD) {
    if (Shared && Shared->graphs() && Shared->graphs()->fits(MD, {}))
      return *Shared->graphs();
    for (const std::unique_ptr<BlockGraphs> &G : OwnGraphs)
      if (G->fits(MD, {}))
        return *G;
    OwnGraphs.push_back(std::make_unique<BlockGraphs>(F, liveness(), MD));
    return *OwnGraphs.back();
  }

  FunctionAnalyses *Shared;
  const std::vector<RegBinding> *Inputs;
  std::optional<Liveness> LV;
  std::optional<ReachingDefBlocks> Reach;
  std::optional<DefiniteAssignment> Definite;
  /// By layout index; sized once, so references into it stay valid.
  std::vector<BlockFacts> Blocks;
  std::vector<std::unique_ptr<BlockGraphs>> OwnGraphs;
};

} // namespace cpr

namespace {

//===----------------------------------------------------------------------===//
// Shared proof helpers
//===----------------------------------------------------------------------===//

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

/// Condition under which the definition slots of \p Op write register
/// \p R, as an expression over \p PQS.
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

/// reachCond (lint/Witness.h) strengthened with the not-executed
/// conditions of earlier halts and traps: a linear dispatch only arrives
/// at the anchor when no earlier branch took *and* no earlier halt or
/// trap retired. The strengthening makes witness replays land on the
/// anchor instead of terminating early.
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

/// The registers \p Op reads: its guard, then its register sources; the
/// true predicate is never read.
std::vector<Reg> readRegs(const Operation &Op) {
  std::vector<Reg> Reads;
  if (!Op.getGuard().isTruePred())
    Reads.push_back(Op.getGuard());
  for (const Operand &S : Op.srcs())
    if (S.isReg() && !S.getReg().isTruePred())
      Reads.push_back(S.getReg());
  return Reads;
}

//===----------------------------------------------------------------------===//
// Bypass checks
//===----------------------------------------------------------------------===//

void frpConsistency(LintContext &Ctx, std::vector<LintFinding> &Out) {
  const Function &F = Ctx.F;
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    const Block &B = F.block(L);
    for (Bypass &BP : Ctx.bypasses(L)) {
      if (BP.Lookaheads.empty()) {
        LintFinding Fd = Ctx.finding(
            DiagCode::LintFRP, B, static_cast<int>(BP.BranchIdx),
            "branch to compensation block @" + BP.Comp->getName() +
                " is not guarded by a recognizable wired-or FRP "
                "accumulation",
            DiagSeverity::Warning);
        RegionPQS &BQ = Ctx.pqs(L);
        BDD::NodeRef V =
            BQ.bdd().mkAnd(BQ.takenExpr(BP.BranchIdx),
                           dispatchCond(BQ, B, BP.BranchIdx, B.size()));
        Fd.Witness =
            buildWitness(F, B, BQ, V, LintWitness::Expect::BranchTaken);
        Fd.Witness->AnchorOp = B.ops()[BP.BranchIdx].getId();
        Out.push_back(std::move(Fd));
        continue;
      }
      const Block &Path = *BP.Path;
      RegionPQS &PQS = *BP.PathPQS;
      BDD &Mgr = PQS.bdd();
      BDD::NodeRef Reach = dispatchCond(PQS, Path, BP.BranchIdx, Path.size());

      // Soundness: everything the compensation block does must be
      // justified by the bypass -- the OR of the re-executed branch
      // conditions may not exceed the bypass predicate. (The converse
      // direction, completeness, is compensation-completeness's job.)
      BDD::NodeRef OffTaken = PQS.takenExpr(BP.BranchIdx);
      BDD::NodeRef Exits = compExitCond(PQS, Path, BP);
      if (Mgr.isValid(OffTaken) && Mgr.isValid(Exits) &&
          !PQS.implies(Exits, OffTaken)) {
        LintFinding Fd = Ctx.finding(
            DiagCode::LintFRP, B, static_cast<int>(BP.BranchIdx),
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
      if (Mgr.isValid(OnE) && Mgr.isValid(OffE) && !PQS.disjoint(OnE, OffE)) {
        LintFinding Fd = Ctx.finding(
            DiagCode::LintFRP, B, static_cast<int>(BP.BranchIdx),
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
        LintFinding Fd = Ctx.finding(
            DiagCode::LintFRP, B, static_cast<int>(BP.BranchIdx),
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

void speculationSafety(LintContext &Ctx, std::vector<LintFinding> &Out) {
  const Function &F = Ctx.F;
  const Liveness &LV = Ctx.liveness();
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    const Block &B = F.block(L);
    for (Bypass &BP : Ctx.bypasses(L)) {
      if (BP.Lookaheads.empty())
        continue;
      LiveSet BlockLive = LV.liveIn(B.getId());
      // Witnesses need the bypass-taken condition and the compensation
      // guards, so they are built over the off-trace path.
      const Block &Path = *BP.Path;
      RegionPQS &Q = *BP.PathPQS;
      BDD &QM = Q.bdd();
      // The bypass window: between the first lookahead (where the
      // collapsed branches conceptually begin) and the bypass branch.
      for (size_t I = BP.FirstLookahead; I < BP.BranchIdx; ++I) {
        const Operation &Op = B.ops()[I];
        if (Op.isCmpp() || Op.isControl() || Op.getOpcode() == Opcode::Pbr)
          continue;
        if (!Op.getGuard().isTruePred())
          continue; // still guarded: not (or faithfully) promoted
        if (Op.hasSideEffects()) {
          LintFinding Fd = Ctx.finding(
              DiagCode::LintSpeculation, B, static_cast<int>(I),
              "side-effecting operation executes unguarded inside the "
              "bypass window; it also runs on executions that take the "
              "bypass to @" + BP.Comp->getName());
          BDD::NodeRef V =
              QM.mkAnd(Q.takenExpr(BP.BranchIdx),
                       dispatchCond(Q, Path, BP.BranchIdx, Path.size()));
          Fd.Witness =
              buildWitness(F, Path, Q, V, LintWitness::Expect::BranchTaken);
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
          if (!HadValue)
            continue;
          LintFinding Fd = Ctx.finding(
              DiagCode::LintSpeculation, B, static_cast<int>(I),
              "promoted operation overwrites " + R.str() +
                  ", whose previous value is still live on the bypass "
                  "path through @" + BP.Comp->getName());
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
            size_t PathIdx = BP.BranchIdx + 1 + static_cast<size_t>(Reader);
            BDD::NodeRef V = QM.mkAnd(
                QM.mkAnd(Q.takenExpr(BP.BranchIdx), Q.guardExpr(PathIdx)),
                dispatchCond(Q, Path, PathIdx, BP.BranchIdx));
            Fd.Witness = buildWitness(F, Path, Q, V,
                                      LintWitness::Expect::ClobberThenUse);
            Fd.Witness->AnchorOp = BP.Comp->ops()[Reader].getId();
            Fd.Witness->AuxOps.push_back(Op.getId());
          } else {
            BDD::NodeRef V =
                QM.mkAnd(Q.takenExpr(BP.BranchIdx),
                         dispatchCond(Q, Path, BP.BranchIdx, Path.size()));
            Fd.Witness =
                buildWitness(F, Path, Q, V, LintWitness::Expect::BranchTaken);
            Fd.Witness->AnchorOp = B.ops()[BP.BranchIdx].getId();
          }
          Fd.Witness->Path.push_back(BP.Comp->getName());
          Out.push_back(std::move(Fd));
        }
      }
    }
  }
}

void compensationCompleteness(LintContext &Ctx, std::vector<LintFinding> &Out) {
  const Function &F = Ctx.F;
  const Liveness &LV = Ctx.liveness();
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    for (Bypass &BP : Ctx.bypasses(L)) {
      if (BP.Lookaheads.empty())
        continue;
      const Block &Path = *BP.Path;
      RegionPQS &PQS = *BP.PathPQS;
      BDD &Mgr = PQS.bdd();
      BDD::NodeRef OffTaken = PQS.takenExpr(BP.BranchIdx);
      BDD::NodeRef Exits = compExitCond(PQS, Path, BP);

      // Completeness: whenever the bypass is taken, some re-executed
      // exit must fire; otherwise the off-trace path falls through to
      // the trailing trap (the planted compensation-skip defect).
      if (Mgr.isValid(OffTaken) && Mgr.isValid(Exits) &&
          !PQS.implies(OffTaken, Exits)) {
        int Anchor = BP.Comp->empty() ? -1
                                      : static_cast<int>(BP.Comp->size()) - 1;
        LintFinding Fd = Ctx.finding(
            DiagCode::LintCompensation, *BP.Comp, Anchor,
            "bypass predicate " + BP.OffPred.str() +
                " can be true with no re-established exit taken: the "
                "off-trace path loses the branch closure moved on its "
                "behalf");
        // An execution taking the bypass with every re-executed exit
        // dead falls through to the compensation block's trailing trap.
        BDD::NodeRef V =
            Mgr.mkAnd(Mgr.mkAnd(OffTaken, Mgr.mkNot(Exits)),
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
        // In register order (the order findings are reported in), not the
        // numbering order the view iterates in.
        LiveSet Live = LV.liveAtExit(Path, K);
        std::vector<Reg> Regs(Live.begin(), Live.end());
        std::sort(Regs.begin(), Regs.end());
        for (Reg R : Regs) {
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
              DefCond = Mgr.mkOr(DefCond, writeCond(PQS, Path.ops()[J], J, R));
            }
          if (!AnyDef || !Mgr.isValid(DefCond))
            continue;
          if (PQS.implies(ExitE, DefCond))
            continue;
          LintFinding Fd = Ctx.finding(
              DiagCode::LintCompensation, *BP.Comp, CompIdx,
              "register " + R.str() +
                  " is live at this off-trace exit but is not "
                  "re-established on the off-trace path");
          BDD::NodeRef V =
              Mgr.mkAnd(Mgr.mkAnd(ExitE, Mgr.mkNot(DefCond)),
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

/// Index in \p B of an unguarded on-trace op before the bypass that is
/// textually identical to compensation op \p C, with no op between the
/// twin and \p C (in off-trace path order) redefining any source or
/// destination register of the pair, and no intervening store when the
/// pair loads. Returns -1 when no such twin exists.
int findOnTraceTwin(const Block &B, const Bypass &BP, size_t CompIdx,
                    const Operation &C) {
  const Block &Path = *BP.Path;
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

void redundantCompensation(LintContext &Ctx, std::vector<LintFinding> &Out) {
  const Function &F = Ctx.F;
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    const Block &B = F.block(L);
    for (Bypass &BP : Ctx.bypasses(L)) {
      if (BP.Lookaheads.empty())
        continue;
      const Block &Path = *BP.Path;
      RegionPQS &Q = *BP.PathPQS;
      for (size_t K = 0; K < BP.Comp->size(); ++K) {
        const Operation &C = BP.Comp->ops()[K];
        if (C.isCmpp() || C.isControl() || C.hasSideEffects() ||
            C.getOpcode() == Opcode::Pbr || C.defs().empty() ||
            !C.getGuard().isTruePred())
          continue;
        int Twin = findOnTraceTwin(B, BP, K, C);
        if (Twin < 0)
          continue;
        Reg R = C.defs().front().R;
        LintFinding Fd = Ctx.finding(
            DiagCode::LintRedundantComp, *BP.Comp, static_cast<int>(K),
            "compensation recomputes " + R.str() +
                ", already produced on-trace by op %" +
                std::to_string(B.ops()[Twin].getId()) +
                " and unclobbered on the off-trace path",
            DiagSeverity::Warning);
        size_t PathIdx = BP.BranchIdx + 1 + K;
        BDD::NodeRef V =
            Q.bdd().mkAnd(Q.takenExpr(BP.BranchIdx),
                          dispatchCond(Q, Path, PathIdx, BP.BranchIdx));
        // Sampled just before the recomputation and just before the
        // next op: equal values prove the recomputation changed
        // nothing.
        if (K + 1 < BP.Comp->size()) {
          Fd.Witness =
              buildWitness(F, Path, Q, V, LintWitness::Expect::RegUnchanged);
          Fd.Witness->AnchorOp = C.getId();
          Fd.Witness->AuxOps.push_back(BP.Comp->ops()[K + 1].getId());
          Fd.Witness->WatchRegs.push_back(R);
        } else {
          Fd.Witness =
              buildWitness(F, Path, Q, V, LintWitness::Expect::BranchTaken);
          Fd.Witness->AnchorOp = B.ops()[BP.BranchIdx].getId();
        }
        Fd.Witness->Path.push_back(BP.Comp->getName());
        Out.push_back(std::move(Fd));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Register checks
//===----------------------------------------------------------------------===//

void useBeforeDef(LintContext &Ctx, std::vector<LintFinding> &Out) {
  const Function &F = Ctx.F;
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    const Block &B = F.block(L);
    if (B.empty())
      continue;
    RegionPQS &PQS = Ctx.pqs(L);
    BDD &Mgr = PQS.bdd();
    for (size_t I = 0; I < B.size(); ++I) {
      const Operation &Op = B.ops()[I];
      for (Reg R : readRegs(Op)) {
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
            DefCond = Mgr.mkOr(DefCond, writeCond(PQS, B.ops()[J], J, R));
          }
        if (!AnyDef)
          continue;
        BDD::NodeRef UseE = PQS.guardExpr(I);
        if (!Mgr.isValid(UseE) || !Mgr.isValid(DefCond))
          continue;
        if (PQS.implies(UseE, DefCond))
          continue;
        LintFinding Fd = Ctx.finding(
            DiagCode::LintUseBeforeDef, B, static_cast<int>(I),
            "register " + R.str() +
                " is read under a predicate that can be true where no "
                "prior definition of it has executed");
        BDD::NodeRef V = Mgr.mkAnd(Mgr.mkAnd(UseE, Mgr.mkNot(DefCond)),
                                   dispatchCond(PQS, B, I, B.size()));
        Fd.Witness =
            buildWitness(F, B, PQS, V, LintWitness::Expect::UseWithoutDef);
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

void deadUnderPredicate(LintContext &Ctx, std::vector<LintFinding> &Out) {
  const Function &F = Ctx.F;
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    const Block &B = F.block(L);
    if (B.empty())
      continue;
    RegionPQS &PQS = Ctx.pqs(L);
    BDD &Mgr = PQS.bdd();
    for (size_t I = 0; I < B.size(); ++I) {
      const Operation &Op = B.ops()[I];
      if (Op.isBranch()) {
        BDD::NodeRef Taken = PQS.takenExpr(I);
        if (!Mgr.isValid(Taken) || Taken != BDD::False)
          continue;
        LintFinding Fd = Ctx.finding(
            DiagCode::LintDeadUnderPred, B, static_cast<int>(I),
            "branch can never take: its taken condition is provably false",
            DiagSeverity::Warning);
        Fd.Witness = buildWitness(F, B, PQS, dispatchCond(PQS, B, I, B.size()),
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
      LintFinding Fd = Ctx.finding(
          DiagCode::LintDeadUnderPred, B, static_cast<int>(I),
          "operation's guard " + Op.getGuard().str() +
              " is provably unsatisfiable: the operation is dead",
          DiagSeverity::Warning);
      Fd.Witness = buildWitness(F, B, PQS, dispatchCond(PQS, B, I, B.size()),
                                LintWitness::Expect::OpIneffective);
      Fd.Witness->AnchorOp = Op.getId();
      Out.push_back(std::move(Fd));
    }
  }
}

void uninitRead(LintContext &Ctx, std::vector<LintFinding> &Out) {
  const Function &F = Ctx.F;
  const ReachingDefBlocks &Reach = Ctx.reachingDefs();
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    const Block &B = F.block(L);
    if (B.empty())
      continue;
    for (size_t I = 0; I < B.size(); ++I) {
      const Operation &Op = B.ops()[I];
      for (Reg R : readRegs(Op)) {
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
        LintFinding Fd = Ctx.finding(
            DiagCode::LintUninitRead, B, static_cast<int>(I),
            "register " + R.str() +
                " is read but no definition of it can reach this block");
        RegionPQS &BQ = Ctx.pqs(L);
        BDD::NodeRef V = BQ.bdd().mkAnd(BQ.guardExpr(I),
                                        dispatchCond(BQ, B, I, B.size()));
        Fd.Witness =
            buildWitness(F, B, BQ, V, LintWitness::Expect::UseWithoutDef);
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

//===----------------------------------------------------------------------===//
// Schedule checks
//===----------------------------------------------------------------------===//

const char *unitName(UnitKind K) {
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

/// A solved ScheduleRecount witness carrying the full schedule under test
/// and an occupancy claim: more than \p Cap ops of unit \p Unit (-1 for
/// any unit) in \p Cycle. A latency claim overrides the occupancy fields.
std::shared_ptr<LintWitness> recountWitness(const Block &B,
                                            const Schedule &S, int Cycle,
                                            int Unit, int Cap) {
  auto W = std::make_shared<LintWitness>();
  W->Kind = LintWitness::Expect::ScheduleRecount;
  W->Solved = true;
  W->SchedBlock = B.getName();
  W->Path.push_back(B.getName());
  for (size_t I = 0; I < S.size(); ++I)
    W->SchedCycles.push_back(S.cycleOf(I));
  W->SchedCycle = Cycle;
  W->SchedUnit = Unit;
  W->SchedCap = Cap;
  return W;
}

void scheduleLegality(LintContext &Ctx, std::vector<LintFinding> &Out) {
  const Function &F = Ctx.F;
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    const Block &B = F.block(L);
    if (B.empty())
      continue;
    for (const BlockSchedule &BS : Ctx.schedules(L)) {
      if (!BS.MD) {
        LintFinding Fd = Ctx.finding(DiagCode::LintSchedule, B,
                                     BS.MalformedOp, BS.Malformed);
        // There is no schedule to recount, so the witness stays honestly
        // unsolved.
        auto W = std::make_shared<LintWitness>();
        W->Kind = LintWitness::Expect::ScheduleRecount;
        W->UnsolvedWhy =
            "malformed pinned-schedule directive; nothing to recount";
        Fd.Witness = std::move(W);
        Out.push_back(std::move(Fd));
        continue;
      }
      const MachineDesc &MD = *BS.MD;
      const Schedule &S = BS.S;
      for (const DepEdge &E : BS.DG->edges())
        if (S.cycleOf(E.To) < S.cycleOf(E.From) + E.Latency) {
          LintFinding Fd = Ctx.finding(
              DiagCode::LintSchedule, B, static_cast<int>(E.To),
              "operation issues in cycle " + std::to_string(S.cycleOf(E.To)) +
                  " before its " + depKindName(E.Kind) +
                  " dependence on op %" +
                  std::to_string(B.ops()[E.From].getId()) + " (cycle " +
                  std::to_string(S.cycleOf(E.From)) + " + latency " +
                  std::to_string(E.Latency) + ") is satisfied on machine '" +
                  MD.getName() + "'");
          auto W = recountWitness(B, S, -1, -1, -1);
          W->SchedFrom = static_cast<int>(E.From);
          W->SchedTo = static_cast<int>(E.To);
          W->SchedLatency = E.Latency;
          Fd.Witness = std::move(W);
          Out.push_back(std::move(Fd));
        }
      for (const auto &[C, Ops] : BS.ByCycle) {
        int PerKind[4] = {0, 0, 0, 0};
        for (size_t N = 0; N < Ops.size(); ++N) {
          size_t I = Ops[N];
          UnitKind K = opcodeUnit(B.ops()[I].getOpcode());
          ++PerKind[static_cast<unsigned>(K)];
          if (MD.isSequential()) {
            if (N == 1) {
              LintFinding Fd = Ctx.finding(
                  DiagCode::LintSchedule, B, static_cast<int>(I),
                  "sequential machine issues more than one operation in "
                  "cycle " + std::to_string(C));
              Fd.Witness = recountWitness(B, S, C, -1, 1);
              Out.push_back(std::move(Fd));
            }
            continue;
          }
          int Cap = MD.unitCount(K);
          if (PerKind[static_cast<unsigned>(K)] == Cap + 1) {
            LintFinding Fd = Ctx.finding(
                DiagCode::LintSchedule, B, static_cast<int>(I),
                std::string("issue slot oversubscribed: more than ") +
                    std::to_string(Cap) + " " + unitName(K) +
                    "-unit operations in cycle " + std::to_string(C) +
                    " on machine '" + MD.getName() + "'");
            Fd.Witness =
                recountWitness(B, S, C, static_cast<int>(K), Cap);
            Out.push_back(std::move(Fd));
          }
        }
      }
    }
  }
}

void resourceOversubscription(LintContext &Ctx, std::vector<LintFinding> &Out) {
  const Function &F = Ctx.F;
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    const Block &B = F.block(L);
    if (B.empty())
      continue;
    // Malformed directives are schedule-legality's findings.
    for (const BlockSchedule &BS : Ctx.schedules(L)) {
      if (!BS.MD || BS.Fetch <= 0)
        continue;
      size_t Fetch = static_cast<size_t>(BS.Fetch);
      for (const auto &[C, Ops] : BS.ByCycle) {
        if (Ops.size() <= Fetch)
          continue;
        LintFinding Fd = Ctx.finding(
            DiagCode::LintResourceOversub, B, static_cast<int>(Ops[Fetch]),
            "fetch width oversubscribed: more than " +
                std::to_string(Fetch) + " operations issue in cycle " +
                std::to_string(C) + " on machine '" + BS.MD->getName() + "'");
        Fd.Witness = recountWitness(B, BS.S, C, -1, BS.Fetch);
        Out.push_back(std::move(Fd));
      }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The check table and the driver
//===----------------------------------------------------------------------===//

std::span<const LintCheck> cpr::lintChecks() {
  static const LintCheck Checks[] = {
      {"frp-consistency",
       "bypass FRP covers the re-executed branch conditions; on-/off-"
       "trace FRPs disjoint and exhaustive (paper Section 4)",
       frpConsistency},
      {"use-before-def",
       "a register read under predicate p is defined wherever p can "
       "be true (predicate-aware dataflow, [JS96])",
       useBeforeDef},
      {"speculation-safety",
       "unguarded operations in the bypass window are side-effect "
       "free and clobber nothing the bypass path needs (Section 6)",
       speculationSafety},
      {"compensation-completeness",
       "every exit collapsed into a bypass is re-established off-"
       "trace, with every register it needs defined (Section 5)",
       compensationCompleteness},
      {"schedule-legality",
       "emitted schedules respect dependence latencies and per-unit "
       "resource limits of the machine model (Section 7)",
       scheduleLegality},
      {"dead-under-predicate",
       "an operation's guard (or a branch's taken condition) is "
       "provably unsatisfiable: the operation can never take effect",
       deadUnderPredicate},
      {"redundant-compensation",
       "a compensation block unconditionally recomputes a value the "
       "on-trace prefix already produced and nothing clobbered",
       redundantCompensation},
      {"uninit-read",
       "a register is read although no definition anywhere in the "
       "function can reach the reading block",
       uninitRead},
      {"resource-oversubscription",
       "a schedule issues more operations in one cycle than the "
       "machine front end fetches (fetch-width occupancy)",
       resourceOversubscription},
  };
  return Checks;
}

LintResult LintDriver::run(const Function &F, FunctionAnalyses *Shared,
                           const std::vector<RegBinding> *Inputs) const {
  LintResult R;
  LintContext Ctx(F, Opts, Shared, Inputs);
  for (const LintCheck &C : lintChecks()) {
    if (!Opts.OnlyChecks.empty() &&
        std::find(Opts.OnlyChecks.begin(), Opts.OnlyChecks.end(), C.Name) ==
            Opts.OnlyChecks.end())
      continue;
    Ctx.Check = C.Name;
    C.Run(Ctx, R.Findings);
    R.ChecksRun.push_back(C.Name);
  }
  return R;
}
