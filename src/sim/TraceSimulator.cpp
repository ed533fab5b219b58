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

#include <memory>
#include <optional>

using namespace cpr;

namespace {

/// Lazily scheduled blocks: only blocks the trace actually enters pay the
/// scheduling cost, and loop bodies are scheduled once. Shared graphs that
/// fit the machine are scheduled as they are; otherwise each block builds
/// its own, over the shared liveness or one solved on first need.
class ScheduleCache {
public:
  ScheduleCache(const Function &F, const MachineDesc &MD,
                const DepGraphOptions &DOpts, const Liveness *LV,
                const BlockGraphs *Graphs)
      : F(F), MD(MD), DOpts(DOpts), LV(LV),
        Graphs(Graphs && Graphs->fits(MD, DOpts) ? Graphs : nullptr),
        Cache(F.numBlocks()) {}

  const Schedule &get(size_t LayoutIdx) {
    std::optional<Schedule> &Slot = Cache[LayoutIdx];
    if (!Slot) {
      const Block &B = F.block(LayoutIdx);
      if (B.empty()) {
        Slot.emplace();
      } else if (Graphs) {
        Slot = scheduleBlock(B, *Graphs->graph(LayoutIdx), MD);
      } else {
        RegionPQS PQS(F, B);
        DepGraph DG(F, B, MD, PQS, liveness(), DOpts);
        Slot = scheduleBlock(B, DG, MD);
      }
    }
    return *Slot;
  }

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
  std::vector<std::optional<Schedule>> Cache;
};

} // namespace

SimEstimate cpr::simulateTrace(const Function &F, const MachineDesc &MD,
                               const BranchTrace &Trace,
                               BranchPredictor &Pred,
                               const SimOptions &Opts, const Liveness *LV,
                               const BlockGraphs *Graphs) {
  SimEstimate Est;
  std::vector<SimBlockStats> BlockStats(F.numBlocks());
  std::optional<BTB> TargetBuffer;
  auto finish = [&]() -> SimEstimate & {
    Est.Pred = Pred.stats();
    if (TargetBuffer) {
      Est.BTBLookups = TargetBuffer->stats().Lookups;
      Est.BTBHits = TargetBuffer->stats().Hits;
      Est.BTBMisses = TargetBuffer->stats().Misses;
    }
    for (SimBlockStats &BS : BlockStats)
      if (BS.Entries != 0)
        Est.Blocks.push_back(std::move(BS));
    return Est;
  };
  auto fail = [&](const std::string &Msg) -> SimEstimate & {
    Est.Error = Msg;
    return finish();
  };

  if (F.numBlocks() == 0)
    return fail("function has no blocks");
  if (Trace.droppedEvents() != 0)
    return fail("trace is incomplete: ring dropped " +
                std::to_string(Trace.droppedEvents()) + " event(s)");
  if (!Trace.hasTerminal())
    return fail("trace has no terminal marker (run did not halt?)");

  int Penalty =
      Opts.MispredictPenalty >= 0 ? Opts.MispredictPenalty
                                  : MD.mispredictPenalty();
  const FrontendOptions &FE = Opts.Frontend;
  int BTBMissPenalty = FE.BTBMissPenalty >= 0 ? FE.BTBMissPenalty
                                              : MD.btbMissPenalty();
  int FetchWidth = FE.FetchWidth > 0 ? FE.FetchWidth : MD.fetchWidth();
  if (FE.UseBTB)
    TargetBuffer.emplace(FE.BTB);
  DepGraphOptions DOpts;
  DOpts.AllowSpeculation = Opts.AllowSpeculation;
  ScheduleCache Schedules(F, MD, DOpts, LV, Graphs);

  // Decoupled frontend: a block entry that dispatches N operations needs
  // ceil(N / FetchWidth) fetch cycles (the taken branch or halt that ends
  // the entry also ends its last fetch packet); when the schedule retires
  // faster than that, the backend stalls for the difference.
  auto chargeFetch = [&](SimBlockStats &BS, double BackendCycles,
                         uint64_t OpsFetched) {
    if (!FE.Decoupled || OpsFetched == 0)
      return;
    uint64_t FetchCycles =
        (OpsFetched + static_cast<uint64_t>(FetchWidth) - 1) /
        static_cast<uint64_t>(FetchWidth);
    double Backend = BackendCycles;
    if (static_cast<double>(FetchCycles) > Backend) {
      uint64_t Stall = FetchCycles - static_cast<uint64_t>(Backend);
      BS.FetchStallCycles += Stall;
      BS.Cycles += static_cast<double>(Stall);
      Est.FetchStallCycles += Stall;
      Est.TotalCycles += static_cast<double>(Stall);
    }
  };

  size_t Cursor = 0; // next unconsumed trace event
  size_t BI = 0;     // layout index of the current block

  while (true) {
    const Block &B = F.block(BI);
    const Schedule &S = Schedules.get(BI);
    SimBlockStats &BS = BlockStats[BI];
    if (BS.Entries == 0) {
      BS.Id = B.getId();
      BS.Name = B.getName();
    }
    ++BS.Entries;
    ++Est.BlockEntries;

    bool Transferred = false;
    for (size_t OI = 0, OE = B.size(); OI != OE; ++OI) {
      const Operation &Op = B.ops()[OI];

      if (Op.getId() == Trace.terminalOp() &&
          (Op.getOpcode() == Opcode::Halt ||
           Op.getOpcode() == Opcode::Trap)) {
        // The run ended on this operation. Like the ExitAware performance
        // model, a halt exit is charged the full block length.
        double C = static_cast<double>(S.length());
        BS.Cycles += C;
        Est.TotalCycles += C;
        Est.OpsDispatched += OI + 1;
        chargeFetch(BS, C, OI + 1);
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

      ++Est.Branches;
      bool Predicted = Pred.observe(Ev.Op, Ev.Taken);
      if (Predicted != Ev.Taken) {
        ++Est.Mispredicts;
        ++BS.Mispredicts;
        Est.PenaltyCycles += static_cast<uint64_t>(Penalty);
        BS.Cycles += Penalty;
        Est.TotalCycles += Penalty;
      }

      if (Ev.Taken) {
        double C = static_cast<double>(S.departureCycle(OI, B, MD));
        BS.Cycles += C;
        Est.TotalCycles += C;
        Est.OpsDispatched += OI + 1;
        BlockId Target = resolveBranchTarget(B, OI);
        if (Target == InvalidBlockId)
          return fail("branch id " + std::to_string(Op.getId()) +
                      " in @" + B.getName() + " has no resolvable target");
        if (TargetBuffer) {
          // The frontend needs the target to redirect without a bubble.
          // A direction mispredict already paid the full restart above;
          // only a direction-correct target miss costs extra here.
          bool Hit = TargetBuffer->access(Op.getId(), Target);
          if (!Hit && Predicted == Ev.Taken) {
            ++BS.BTBMisses;
            Est.BTBPenaltyCycles += static_cast<uint64_t>(BTBMissPenalty);
            BS.Cycles += BTBMissPenalty;
            Est.TotalCycles += BTBMissPenalty;
          }
        }
        chargeFetch(BS, C, OI + 1);
        int TargetIdx = F.layoutIndex(Target);
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
    double C = static_cast<double>(S.length());
    BS.Cycles += C;
    Est.TotalCycles += C;
    Est.OpsDispatched += B.size();
    chargeFetch(BS, C, B.size());
    if (BI + 1 >= F.numBlocks())
      return fail("control fell off the end of the function in @" +
                  B.getName());
    ++BI;
  }
}
