//===- sim/TraceSimulator.cpp - Trace-driven cycle simulation -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/TraceSimulator.h"

#include "analysis/CFG.h"
#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "sched/ListScheduler.h"

#include <cassert>
#include <memory>

using namespace cpr;

namespace {

/// Schedules blocks on demand: pricing asks only for the blocks a replay
/// entered. Shared graphs that fit the machine are scheduled as they are;
/// otherwise each block builds its own, over the shared liveness or one
/// solved on first need, and counts it.
class BlockScheduler {
public:
  BlockScheduler(const Function &F, const MachineDesc &MD,
                 const DepGraphOptions &DOpts, const Liveness *LV,
                 const BlockGraphs *Graphs)
      : F(F), MD(MD), DOpts(DOpts), LV(LV),
        Graphs(Graphs && Graphs->fits(MD, DOpts) ? Graphs : nullptr) {}

  Schedule schedule(size_t LayoutIdx) {
    const Block &B = F.block(LayoutIdx);
    if (B.empty())
      return Schedule();
    if (Graphs)
      return scheduleBlock(B, *Graphs->graph(LayoutIdx), MD);
    RegionPQS PQS(F, B);
    DepGraph DG(F, B, MD, PQS, liveness(), DOpts);
    ++GraphsBuilt;
    return scheduleBlock(B, DG, MD);
  }

  size_t graphsBuilt() const { return GraphsBuilt; }

private:
  const Liveness &liveness() {
    if (!LV) {
      Owned = std::make_unique<Liveness>(F);
      LV = Owned.get();
    }
    return *LV;
  }

  const Function &F;
  const MachineDesc &MD;
  DepGraphOptions DOpts;
  const Liveness *LV;
  std::unique_ptr<Liveness> Owned;
  const BlockGraphs *Graphs;
  size_t GraphsBuilt = 0;
};

} // namespace

TraceReplay cpr::replayTrace(const Function &F, const BranchTrace &Trace,
                             BranchPredictor &Pred,
                             const FrontendOptions &FE) {
  TraceReplay R;
  R.Blocks.resize(F.numBlocks());
  std::optional<BTB> TargetBuffer;
  auto finish = [&]() -> TraceReplay & {
    R.Pred = Pred.stats();
    if (TargetBuffer)
      R.BTB = TargetBuffer->stats();
    return R;
  };
  auto fail = [&](const std::string &Msg) -> TraceReplay & {
    R.Error = Msg;
    return finish();
  };

  if (F.numBlocks() == 0)
    return fail("function has no blocks");
  if (!Trace.hasTerminal())
    return fail("trace has no terminal marker (run did not halt?)");

  if (FE.UseBTB) {
    TargetBuffer.emplace(FE.BTB);
    R.BTBGeometry = FE.BTB;
  }

  const std::vector<int> Layout = layoutIndexMap(F);
  size_t Cursor = 0; // next unconsumed trace event
  size_t BI = 0;     // layout index of the current block

  while (true) {
    const Block &B = F.block(BI);
    ReplayBlock &RB = R.Blocks[BI];
    if (RB.Entries++ == 0)
      RB.Departures.assign(B.size(), 0);
    ++R.BlockEntries;

    bool Transferred = false;
    for (size_t OI = 0, OE = B.size(); OI != OE; ++OI) {
      const Operation &Op = B.ops()[OI];

      if (Op.getId() == Trace.terminalOp() &&
          (Op.getOpcode() == Opcode::Halt ||
           Op.getOpcode() == Opcode::Trap)) {
        // The run ended on this operation.
        R.HaltBlock = BI;
        R.HaltOp = OI;
        R.OpsDispatched += OI + 1;
        if (Cursor != Trace.size())
          return fail("trace has " + std::to_string(Trace.size() - Cursor) +
                      " event(s) past the terminal operation");
        return finish();
      }

      if (Op.getOpcode() == Opcode::Halt || Op.getOpcode() == Opcode::Trap) {
        // A non-terminal halt/trap on the replayed path must have been
        // nullified by its guard; an unguarded one means the trace does
        // not belong to this function.
        if (Op.getGuard().isTruePred())
          return fail("trace diverged: unguarded " +
                      std::string(Op.getOpcode() == Opcode::Halt ? "halt"
                                                                 : "trap") +
                      " in @" + B.getName() + " is not the trace terminal");
        continue;
      }

      if (!Op.isBranch())
        continue;

      if (Cursor >= Trace.size())
        return fail("trace exhausted at branch id " +
                    std::to_string(Op.getId()) + " in @" + B.getName());
      const BranchEvent &Ev = Trace.event(Cursor++);
      if (Ev.Op != Op.getId())
        return fail("trace diverged in @" + B.getName() + ": event id " +
                    std::to_string(Ev.Op) + " vs branch id " +
                    std::to_string(Op.getId()));

      ++R.Branches;
      bool Predicted = Pred.observe(Ev.Op, Ev.Taken);
      if (Predicted != Ev.Taken) {
        ++R.Mispredicts;
        ++RB.Mispredicts;
      }

      if (Ev.Taken) {
        ++RB.Departures[OI];
        R.OpsDispatched += OI + 1;
        BlockId Target = resolveBranchTarget(B, OI);
        if (Target == InvalidBlockId)
          return fail("branch id " + std::to_string(Op.getId()) +
                      " in @" + B.getName() + " has no resolvable target");
        // The frontend needs the target to redirect without a bubble. A
        // direction mispredict already pays the full restart; only a
        // direction-correct target miss costs extra.
        if (TargetBuffer && !TargetBuffer->access(Op.getId(), Target) &&
            Predicted == Ev.Taken)
          ++RB.BTBMisses;
        int TargetIdx = Target < Layout.size() ? Layout[Target] : -1;
        if (TargetIdx < 0)
          return fail("branch id " + std::to_string(Op.getId()) +
                      " targets a block outside the function");
        BI = static_cast<size_t>(TargetIdx);
        Transferred = true;
        break;
      }
    }
    if (Transferred)
      continue;

    // Fell through the end of the block.
    ++RB.FallThroughs;
    R.OpsDispatched += B.size();
    if (BI + 1 >= F.numBlocks())
      return fail("control fell off the end of the function in @" +
                  B.getName());
    ++BI;
  }
}

TraceReplay cpr::replayProfile(const Function &F, const ProfileData &Profile,
                               PerfModelOptions::Mode WeightMode) {
  TraceReplay R;
  R.Blocks.resize(F.numBlocks());
  R.HaltBlock = F.numBlocks(); // halting entries are fall-throughs here
  for (size_t BI = 0; BI < F.numBlocks(); ++BI) {
    const Block &B = F.block(BI);
    ReplayBlock &RB = R.Blocks[BI];
    RB.Entries = Profile.blockEntries(B.getId());
    R.BlockEntries += RB.Entries;
    if (RB.Entries == 0 || WeightMode == PerfModelOptions::Mode::BlockLength) {
      RB.FallThroughs = RB.Entries;
      continue;
    }
    RB.Departures.assign(B.size(), 0);
    uint64_t Departed = 0;
    for (const BlockExit &E : blockExits(F, BI)) {
      if (E.isFallThrough())
        continue;
      const Operation &Op = B.ops()[static_cast<size_t>(E.OpIdx)];
      if (!Op.isBranch())
        continue; // a halt or trap: its entries are fall-throughs
      uint64_t Taken = Profile.branchTaken(Op.getId());
      RB.Departures[static_cast<size_t>(E.OpIdx)] = Taken;
      Departed += Taken;
    }
    RB.FallThroughs = RB.Entries > Departed ? RB.Entries - Departed : 0;
  }
  return R;
}

SimEstimate cpr::priceReplay(const TraceReplay &R, const Function &F,
                             const MachineDesc &MD, const SimOptions &Opts,
                             const Liveness *LV, const BlockGraphs *Graphs) {
  SimEstimate Est;
  if (!R.ok()) {
    Est.Error = R.Error;
    return Est;
  }
  const FrontendOptions &FE = Opts.Frontend;
  assert((!FE.UseBTB || R.BTBGeometry == FE.BTB) &&
         "priceReplay: the replay's BTB differs from the frontend's");
  assert(R.Blocks.size() == F.numBlocks() &&
         "priceReplay: the replay is of another function");

  int Penalty =
      Opts.MispredictPenalty >= 0 ? Opts.MispredictPenalty
                                  : MD.mispredictPenalty();
  int BTBMissPenalty = FE.BTBMissPenalty >= 0 ? FE.BTBMissPenalty
                                              : MD.btbMissPenalty();
  int FetchWidth = FE.FetchWidth > 0 ? FE.FetchWidth : MD.fetchWidth();
  DepGraphOptions DOpts;
  DOpts.AllowSpeculation = Opts.AllowSpeculation;
  BlockScheduler Scheduler(F, MD, DOpts, LV, Graphs);

  Est.OpsDispatched = R.OpsDispatched;
  Est.Branches = R.Branches;
  Est.Mispredicts = R.Mispredicts;
  Est.BlockEntries = R.BlockEntries;
  Est.Pred = R.Pred;
  if (FE.UseBTB) {
    Est.BTBLookups = R.BTB.Lookups;
    Est.BTBHits = R.BTB.Hits;
    Est.BTBMisses = R.BTB.Misses;
  }

  // Every count and cycle figure is an integer, so the products and sums
  // below are exact doubles: pricing per exit gives the very totals that
  // charging every entry one by one would.
  for (size_t BI = 0; BI < F.numBlocks(); ++BI) {
    const ReplayBlock &RB = R.Blocks[BI];
    if (RB.Entries == 0)
      continue;
    const Block &B = F.block(BI);
    Schedule S = Scheduler.schedule(BI);
    SimBlockStats BS;
    BS.Id = B.getId();
    BS.Name = B.getName();
    BS.Entries = RB.Entries;

    // N exits of Cycles backend cycles each, every one after dispatching
    // OpsFetched operations. Decoupled frontend: such an entry needs
    // ceil(OpsFetched / FetchWidth) fetch cycles (the taken branch or
    // halt that ends the entry also ends its last fetch packet); when the
    // schedule retires faster than that, the backend stalls for the
    // difference.
    auto charge = [&](uint64_t N, int Cycles, uint64_t OpsFetched) {
      double C = static_cast<double>(Cycles);
      BS.Cycles += static_cast<double>(N) * C;
      if (!FE.Decoupled || OpsFetched == 0)
        return;
      uint64_t FetchCycles =
          (OpsFetched + static_cast<uint64_t>(FetchWidth) - 1) /
          static_cast<uint64_t>(FetchWidth);
      if (static_cast<double>(FetchCycles) > C) {
        uint64_t Stall = N * (FetchCycles - static_cast<uint64_t>(C));
        BS.FetchStallCycles += Stall;
        BS.Cycles += static_cast<double>(Stall);
      }
    };
    for (size_t OI = 0; OI < RB.Departures.size(); ++OI)
      if (uint64_t N = RB.Departures[OI])
        charge(N, S.departureCycle(OI, B, MD), OI + 1);
    // A fall-through, like a halt exit, is charged the full block length.
    if (RB.FallThroughs != 0)
      charge(RB.FallThroughs, S.length(), B.size());
    if (BI == R.HaltBlock)
      charge(1, S.length(), R.HaltOp + 1);

    BS.Mispredicts = RB.Mispredicts;
    BS.Cycles += static_cast<double>(RB.Mispredicts) * Penalty;
    Est.PenaltyCycles += RB.Mispredicts * static_cast<uint64_t>(Penalty);
    if (FE.UseBTB) {
      BS.BTBMisses = RB.BTBMisses;
      BS.Cycles += static_cast<double>(RB.BTBMisses) * BTBMissPenalty;
      Est.BTBPenaltyCycles +=
          RB.BTBMisses * static_cast<uint64_t>(BTBMissPenalty);
    }
    Est.FetchStallCycles += BS.FetchStallCycles;
    Est.TotalCycles += BS.Cycles;
    Est.Blocks.push_back(std::move(BS));
  }
  Est.DepGraphsBuilt = Scheduler.graphsBuilt();
  return Est;
}

SimEstimate cpr::simulateTrace(const Function &F, const MachineDesc &MD,
                               const BranchTrace &Trace,
                               BranchPredictor &Pred,
                               const SimOptions &Opts, const Liveness *LV,
                               const BlockGraphs *Graphs) {
  return priceReplay(replayTrace(F, Trace, Pred, Opts.Frontend), F, MD, Opts,
                     LV, Graphs);
}

SimEstimate cpr::estimatePerformance(const Function &F,
                                     const MachineDesc &MD,
                                     const ProfileData &Profile,
                                     const PerfModelOptions &Opts,
                                     const Liveness *LV,
                                     const BlockGraphs *Graphs) {
  SimOptions SO;
  SO.MispredictPenalty = 0;
  SO.AllowSpeculation = Opts.AllowSpeculation;
  return priceReplay(replayProfile(F, Profile, Opts.WeightMode), F, MD, SO,
                     LV, Graphs);
}
