//===- cpr/Match.cpp - ICBM phase 2: CPR block identification -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "cpr/Match.h"

#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "support/Error.h"

#include <unordered_set>

using namespace cpr;

const char *cpr::matchStopReasonName(MatchStopReason R) {
  switch (R) {
  case MatchStopReason::NoMoreBranches:
    return "no-more-branches";
  case MatchStopReason::Suitability:
    return "suitability";
  case MatchStopReason::Separability:
    return "separability";
  case MatchStopReason::ExitWeight:
    return "exit-weight";
  case MatchStopReason::PredictTaken:
    return "predict-taken";
  case MatchStopReason::SizeCap:
    return "size-cap";
  }
  CPR_UNREACHABLE("bad stop reason");
}

namespace {

/// Per-branch description gathered in the preliminary pass.
struct BranchDesc {
  size_t BranchIdx;       ///< op index of the branch
  int CmppIdx = -1;       ///< op index of its controlling compare, or -1
  bool CmppIsUN = false;  ///< compare computes the branch pred with UN
  Reg CmppGuard;          ///< guard of the controlling compare
  Reg FallPred;           ///< UC destination of the compare, if any
  bool HasFallPred = false;
};

/// Incremental separability state: the accumulated dependence-successor
/// set ("succ") of compares already committed to the current CPR block.
class SeparabilityState {
public:
  SeparabilityState(const Block &B, const DepGraph &DG,
                    const std::vector<BranchDesc> &Branches)
      : B(B), DG(DG) {
    // Controlling compares of every branch in the region (growth may reach
    // any of them): edges into these via UC-guard chains are the
    // suitability-licensed dependences that append-successors ignores.
    for (const BranchDesc &BD : Branches)
      if (BD.CmppIdx >= 0)
        ChainCmpps.insert(static_cast<uint32_t>(BD.CmppIdx));
  }

  void reset() { Succ.clear(); }

  bool contains(uint32_t OpIdx) const { return Succ.count(OpIdx) != 0; }

  /// append-successors: accumulates the dependence successors of the
  /// compare at \p CmppIdx, ignoring UC-guard-chain edges into other
  /// branch-controlling compares.
  void appendSuccessors(uint32_t CmppIdx) {
    std::vector<uint32_t> Stack{CmppIdx};
    while (!Stack.empty()) {
      uint32_t N = Stack.back();
      Stack.pop_back();
      for (uint32_t EI : DG.succs(N)) {
        const DepEdge &E = DG.edge(EI);
        if (ignorableEdge(E))
          continue;
        if (!Succ.insert(E.To).second)
          continue;
        Stack.push_back(E.To);
      }
    }
  }

private:
  /// True for a flow edge from a compare to a later branch-controlling
  /// compare that exists only because the later compare's *guard* is the
  /// earlier compare's UC (fall-through) output. Suitability guarantees
  /// the schema replaces that guard by the root predicate, so the
  /// dependence disappears after transformation.
  bool ignorableEdge(const DepEdge &E) const {
    if (E.Kind != DepKind::Flow)
      return false;
    const Operation &From = B.ops()[E.From];
    const Operation &To = B.ops()[E.To];
    if (!From.isCmpp() || !To.isCmpp())
      return false;
    if (ChainCmpps.count(E.To) == 0)
      return false;
    // The edge must be purely a guard dependence on a UC destination.
    Reg Guard = To.getGuard();
    bool GuardIsUcOfFrom = false;
    for (const DefSlot &D : From.defs())
      if (D.R == Guard && D.Act == CmppAction::UC)
        GuardIsUcOfFrom = true;
    if (!GuardIsUcOfFrom)
      return false;
    // Data sources must not also depend on the earlier compare.
    for (const Operand &S : To.srcs())
      if (S.isReg() && From.definesReg(S.getReg()))
        return false;
    return true;
  }

  const Block &B;
  const DepGraph &DG;
  std::unordered_set<uint32_t> ChainCmpps;
  std::unordered_set<uint32_t> Succ;
};

} // namespace

std::vector<CPRBlockInfo> cpr::matchCPRBlocks(const Function &F,
                                              const Block &B,
                                              const ProfileData &Profile,
                                              const CPROptions &Opts,
                                              LivenessCache *Cache) {
  std::vector<CPRBlockInfo> Result;

  // Preliminary pass: list branches in sequential order with their
  // controlling compares (reaching-definition within the block).
  std::vector<BranchDesc> Branches;
  for (size_t I = 0, E = B.size(); I != E; ++I) {
    const Operation &Op = B.ops()[I];
    if (!Op.isBranch())
      continue;
    BranchDesc BD;
    BD.BranchIdx = I;
    Reg TakenPred = Op.branchPred();
    int DefIdx = B.lastDefBefore(TakenPred, I);
    if (DefIdx >= 0) {
      const Operation &Def = B.ops()[static_cast<size_t>(DefIdx)];
      if (Def.isCmpp()) {
        BD.CmppIdx = DefIdx;
        BD.CmppGuard = Def.getGuard();
        for (const DefSlot &D : Def.defs()) {
          if (D.R == TakenPred && D.Act == CmppAction::UN)
            BD.CmppIsUN = true;
          if (D.Act == CmppAction::UC) {
            BD.FallPred = D.R;
            BD.HasFallPred = true;
          }
        }
      }
    }
    Branches.push_back(BD);
  }
  if (Branches.empty())
    return Result;

  // Analyses for separability. The machine only affects edge latencies,
  // which the successor closure ignores.
  RegionPQS PQS(F, B);
  LivenessCache Local(F);
  MachineDesc MD = MachineDesc::medium();
  DepGraph DG(F, B, MD, PQS, (Cache ? *Cache : Local).get());
  SeparabilityState Sep(B, DG, Branches);

  size_t Next = 0; // index into Branches of the next seed
  while (Next < Branches.size()) {
    // --- Seed a new CPR block with the next branch ---------------------
    const BranchDesc &Seed = Branches[Next];
    CPRBlockInfo Info;
    Info.BranchIds.push_back(B.ops()[Seed.BranchIdx].getId());
    Info.CmppIds.push_back(
        Seed.CmppIdx >= 0 ? B.ops()[static_cast<size_t>(Seed.CmppIdx)].getId()
                          : InvalidOpId);

    bool SeedSuitable = Seed.CmppIdx >= 0 && Seed.CmppIsUN;
    // Suitable-predicate set (suitability induction state).
    std::unordered_set<Reg> SP;
    if (SeedSuitable) {
      SP.insert(Seed.CmppGuard); // the CPR block's root predicate
      if (Seed.HasFallPred)
        SP.insert(Seed.FallPred);
      Sep.reset();
      Sep.appendSuccessors(static_cast<uint32_t>(Seed.CmppIdx));
    }

    // Entry frequency: how often the seed branch is reached.
    uint64_t EntryFreq =
        Profile.branchReached(B.ops()[Seed.BranchIdx].getId());
    uint64_t CumulativeExits =
        Profile.branchTaken(B.ops()[Seed.BranchIdx].getId());

    // Seed predict-taken: a likely-taken *first* branch cannot anchor a
    // useful fall-through prefix; treat the block as taken-variation of
    // size one (not transformable, but growth must stop).
    bool PredTaken =
        Opts.EnableTakenVariation && EntryFreq > 0 &&
        Profile.takenRatio(B.ops()[Seed.BranchIdx].getId()) >
            Opts.PredictTakenThreshold;
    if (PredTaken)
      Info.TakenVariation = true;

    size_t Cur = Next;
    // --- Grow the CPR block from the seed --------------------------------
    while (true) {
      if (PredTaken) {
        Info.StopReason = MatchStopReason::PredictTaken;
        break;
      }
      size_t Cand = Cur + 1;
      if (Cand >= Branches.size()) {
        Info.StopReason = MatchStopReason::NoMoreBranches;
        break;
      }
      if (Info.size() >= Opts.MaxBranchesPerBlock) {
        Info.StopReason = MatchStopReason::SizeCap;
        break;
      }
      const BranchDesc &CD = Branches[Cand];

      // Suitability: UN-computed branch predicate, compare guarded by SP.
      if (!SeedSuitable || CD.CmppIdx < 0 || !CD.CmppIsUN ||
          SP.count(CD.CmppGuard) == 0) {
        Info.StopReason = MatchStopReason::Suitability;
        break;
      }
      // Separability: the candidate's compare must not depend on compares
      // that move off-trace.
      if (Sep.contains(static_cast<uint32_t>(CD.CmppIdx))) {
        Info.StopReason = MatchStopReason::Separability;
        break;
      }
      // Predict-taken (priority over exit-weight): append and stop.
      OpId CandBranchId = B.ops()[CD.BranchIdx].getId();
      if (Opts.EnableTakenVariation && EntryFreq > 0 &&
          static_cast<double>(Profile.branchTaken(CandBranchId)) /
                  static_cast<double>(EntryFreq) >
              Opts.PredictTakenThreshold) {
        PredTaken = true;
        Info.TakenVariation = true;
        // fall through to append below
      } else if (EntryFreq > 0 &&
                 static_cast<double>(CumulativeExits +
                                     Profile.branchTaken(CandBranchId)) /
                         static_cast<double>(EntryFreq) >
                     Opts.ExitWeightThreshold) {
        // Exit-weight: candidate not appended.
        Info.StopReason = MatchStopReason::ExitWeight;
        break;
      }

      // Passed all tests: append the candidate.
      Info.BranchIds.push_back(CandBranchId);
      Info.CmppIds.push_back(B.ops()[static_cast<size_t>(CD.CmppIdx)].getId());
      CumulativeExits += Profile.branchTaken(CandBranchId);
      if (CD.HasFallPred)
        SP.insert(CD.FallPred);
      Sep.appendSuccessors(static_cast<uint32_t>(CD.CmppIdx));
      Cur = Cand;
    }

    Info.Transformable =
        SeedSuitable && Info.size() >= Opts.MinBranchesPerBlock;
    // A taken-variation block must have a fall-through prefix plus the
    // taken branch; size-1 taken blocks are trivial.
    if (Info.TakenVariation && Info.size() < 2)
      Info.Transformable = false;
    Result.push_back(std::move(Info));
    Next = Cur + 1;
  }
  return Result;
}
