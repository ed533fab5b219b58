//===- sched/PerfModel.cpp - Compiler-estimation performance model --------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "sched/PerfModel.h"

#include "analysis/CFG.h"
#include "sched/ListScheduler.h"
#include "support/Error.h"

#include <algorithm>
#include <memory>
#include <optional>

using namespace cpr;

PerfEstimate cpr::estimatePerformance(const Function &F,
                                      const MachineDesc &MD,
                                      const ProfileData &Profile,
                                      const PerfModelOptions &Opts,
                                      const Liveness *SharedLV,
                                      const BlockGraphs *Graphs) {
  PerfEstimate Est;
  DepGraphOptions DOpts;
  DOpts.AllowSpeculation = Opts.AllowSpeculation;
  if (Graphs && !Graphs->fits(MD, DOpts))
    Graphs = nullptr; // another machine's latencies: build this one's own
  std::unique_ptr<Liveness> Owned;
  if (!Graphs && !SharedLV) {
    Owned = std::make_unique<Liveness>(F);
    SharedLV = Owned.get();
  }

  for (size_t BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
    const Block &B = F.block(BI);
    BlockEstimate BEst;
    BEst.Id = B.getId();
    BEst.Name = B.getName();
    BEst.Entries = Profile.blockEntries(B.getId());
    if (B.empty()) {
      Est.Blocks.push_back(BEst);
      continue;
    }

    std::optional<DepGraph> Own;
    const DepGraph *DG = Graphs ? Graphs->graph(BI) : nullptr;
    if (!DG) {
      RegionPQS PQS(F, B);
      DG = &Own.emplace(F, B, MD, PQS, *SharedLV, DOpts);
      ++Est.DepGraphsBuilt;
    }
    Schedule S = scheduleBlock(B, *DG, MD);
    BEst.ScheduleLength = S.length();
    BEst.CriticalPath = DG->criticalPathLength();

    if (BEst.Entries == 0) {
      Est.Blocks.push_back(BEst);
      continue;
    }

    if (Opts.WeightMode == PerfModelOptions::Mode::BlockLength) {
      BEst.Cycles = static_cast<double>(BEst.Entries) *
                    static_cast<double>(S.length());
    } else {
      // Exit-aware: entries that depart through a taken interior branch are
      // charged up to its departure cycle; the rest pay the full length.
      uint64_t Departed = 0;
      double Cycles = 0.0;
      for (const BlockExit &E : blockExits(F, BI)) {
        if (E.isFallThrough())
          continue;
        const Operation &Op = B.ops()[static_cast<size_t>(E.OpIdx)];
        if (!Op.isBranch())
          continue; // halt/trap handled as block end below
        uint64_t Taken = Profile.branchTaken(Op.getId());
        if (Taken == 0)
          continue;
        Cycles += static_cast<double>(Taken) *
                  static_cast<double>(
                      S.departureCycle(static_cast<size_t>(E.OpIdx), B, MD));
        Departed += Taken;
      }
      uint64_t FallThrough =
          BEst.Entries > Departed ? BEst.Entries - Departed : 0;
      Cycles += static_cast<double>(FallThrough) *
                static_cast<double>(S.length());
      BEst.Cycles = Cycles;
    }
    Est.TotalCycles += BEst.Cycles;
    Est.Blocks.push_back(BEst);
  }
  return Est;
}
