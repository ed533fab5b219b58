//===- sched/ListScheduler.cpp - EPIC list scheduling ---------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "sched/ListScheduler.h"

#include "support/Error.h"

#include <algorithm>

using namespace cpr;

Schedule::Schedule(std::vector<int> InCycles, const Block &B,
                   const MachineDesc &MD)
    : Cycles(std::move(InCycles)) {
  assert(Cycles.size() == B.size());
  for (size_t I = 0; I < Cycles.size(); ++I)
    Length = std::max(Length, Cycles[I] + std::max(1, MD.latency(B.ops()[I])));
}

int Schedule::departureCycle(size_t OpIdx, const Block &B,
                             const MachineDesc &MD) const {
  const Operation &Op = B.ops()[OpIdx];
  assert(Op.isControl() && "departure cycle is defined for exits");
  if (Op.isBranch())
    return Cycles[OpIdx] + MD.branchLatency();
  return Cycles[OpIdx] + 1; // halt/trap
}

Schedule cpr::scheduleBlock(const Block &B, const DepGraph &DG,
                            const MachineDesc &MD) {
  size_t N = DG.numNodes();
  assert(N == B.size());
  std::vector<int> Cycle(N, -1);
  if (N == 0)
    return Schedule({}, B, MD);

  std::vector<int> Height = DG.heights();
  // Exit-order priority boost: a branch's scheduling priority is at least
  // that of everything after it in program order. Dependence height alone
  // would sink side exits (which have no data successors) to the end of
  // the schedule, delaying taken departures -- real superblock schedulers
  // keep exits near their program position. Legality is untouched; this
  // only biases the ready-list order.
  {
    int RunningMax = 0;
    for (size_t I = N; I-- > 0;) {
      if (B.ops()[I].isBranch() && Height[I] < RunningMax)
        Height[I] = RunningMax;
      RunningMax = std::max(RunningMax, Height[I]);
    }
  }
  std::vector<unsigned> UnscheduledPreds(N, 0);
  for (const DepEdge &E : DG.edges())
    ++UnscheduledPreds[E.To];

  // Earliest legal cycle per op, refined as predecessors schedule.
  std::vector<int> Earliest(N, 0);

  // Candidate pool: ops whose predecessors are all scheduled.
  std::vector<uint32_t> Pool;
  for (uint32_t I = 0; I < N; ++I)
    if (UnscheduledPreds[I] == 0)
      Pool.push_back(I);

  size_t Remaining = N;
  int Cur = 0;
  constexpr unsigned NumUnitKinds = 4;

  while (Remaining > 0) {
    // Resource budget for this cycle.
    int Budget[NumUnitKinds];
    for (unsigned K = 0; K < NumUnitKinds; ++K)
      Budget[K] = MD.unitCount(static_cast<UnitKind>(K));
    int TotalBudget = MD.isSequential() ? 1 : MD.issueWidth();

    // Ready = pool ops whose earliest cycle has arrived; highest height
    // first, program order as tie-break (stable since pool is sorted).
    std::sort(Pool.begin(), Pool.end());
    std::vector<uint32_t> Ready;
    for (uint32_t I : Pool)
      if (Earliest[I] <= Cur)
        Ready.push_back(I);
    std::stable_sort(Ready.begin(), Ready.end(),
                     [&](uint32_t A, uint32_t Bn) {
                       return Height[A] > Height[Bn];
                     });

    bool PlacedAny = false;
    for (uint32_t I : Ready) {
      if (TotalBudget == 0)
        break;
      unsigned K = static_cast<unsigned>(opcodeUnit(B.ops()[I].getOpcode()));
      if (!MD.isSequential() && Budget[K] == 0)
        continue;
      // Place op I at cycle Cur.
      Cycle[I] = Cur;
      --TotalBudget;
      --Budget[K];
      PlacedAny = true;
      --Remaining;
      Pool.erase(std::find(Pool.begin(), Pool.end(), I));
      for (uint32_t EI : DG.succs(I)) {
        const DepEdge &E = DG.edge(EI);
        Earliest[E.To] = std::max(Earliest[E.To], Cur + E.Latency);
        if (--UnscheduledPreds[E.To] == 0)
          Pool.push_back(E.To);
      }
    }
    (void)PlacedAny;
    ++Cur;
  }
  return Schedule(std::move(Cycle), B, MD);
}

std::vector<std::string> cpr::checkScheduleLegality(const Block &B,
                                                    const DepGraph &DG,
                                                    const MachineDesc &MD,
                                                    const Schedule &S) {
  std::vector<std::string> Errors;
  if (S.size() != B.size()) {
    Errors.push_back("schedule size mismatch");
    return Errors;
  }
  for (const DepEdge &E : DG.edges()) {
    if (S.cycleOf(E.To) < S.cycleOf(E.From) + E.Latency)
      Errors.push_back("edge " + std::string(depKindName(E.Kind)) + " " +
                       std::to_string(E.From) + "->" + std::to_string(E.To) +
                       " violated: " + std::to_string(S.cycleOf(E.From)) +
                       " + " + std::to_string(E.Latency) + " > " +
                       std::to_string(S.cycleOf(E.To)));
  }
  // Resource check per cycle.
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
      ++PerKind[static_cast<unsigned>(opcodeUnit(B.ops()[I].getOpcode()))];
    }
    if (MD.isSequential()) {
      if (Total > 1)
        Errors.push_back("sequential machine issued " + std::to_string(Total) +
                         " ops in cycle " + std::to_string(C));
      continue;
    }
    for (unsigned K = 0; K < 4; ++K)
      if (PerKind[K] > MD.unitCount(static_cast<UnitKind>(K)))
        Errors.push_back("unit kind " + std::to_string(K) + " oversubscribed " +
                         "in cycle " + std::to_string(C));
  }
  return Errors;
}
