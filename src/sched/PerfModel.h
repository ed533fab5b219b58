//===- sched/PerfModel.h - Compiler-estimation performance model -*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's performance methodology (Section 7): code is scheduled for a
/// processor configuration and execution time is estimated from static
/// schedule lengths weighted by profiled execution frequencies, ignoring
/// dynamic effects (caches, predictors).
///
/// Two weighting modes are provided:
///  - BlockLength: the paper's literal formula, sum over blocks of
///    scheduleLength * entryFrequency;
///  - ExitAware (default): an entry that departs through a taken exit is
///    charged up to that exit's departure cycle instead of the full block
///    length. This realizes the exit-delay penalties Section 7 discusses
///    (delayed exit branches hurting narrow machines) that the literal
///    formula cannot express.
///
/// Only the list scheduler needs the machine's issue resources: the
/// dependence graph of a block depends on the machine through its
/// latencies alone, which differ only in the branch latency. A caller
/// estimating several machines (PipelineRun) builds each block's graph
/// once per branch latency (analysis/DepGraph.h, BlockGraphs) and passes
/// it to every estimate.
///
//===----------------------------------------------------------------------===//

#ifndef SCHED_PERFMODEL_H
#define SCHED_PERFMODEL_H

#include "analysis/ProfileData.h"
#include "machine/MachineDesc.h"
#include "sched/Schedule.h"

#include <string>
#include <vector>

namespace cpr {

class BlockGraphs;
class Liveness;

/// Cycle-estimation options.
struct PerfModelOptions {
  enum class Mode {
    BlockLength, ///< schedule length x entry frequency (paper's formula)
    ExitAware,   ///< charge taken exits their departure cycle
  };
  Mode WeightMode = Mode::ExitAware;
  bool AllowSpeculation = true;
};

/// Per-block detail of one estimate.
struct BlockEstimate {
  BlockId Id;
  std::string Name;
  uint64_t Entries = 0;
  int ScheduleLength = 0;
  int CriticalPath = 0;
  double Cycles = 0.0;
};

/// A whole-function estimate.
struct PerfEstimate {
  double TotalCycles = 0.0;
  std::vector<BlockEstimate> Blocks;
  /// Dependence graphs the estimate built itself: 0 when the given
  /// BlockGraphs fit \p MD, else one per non-empty block.
  size_t DepGraphsBuilt = 0;
};

/// Schedules every block of \p F for \p MD and estimates total cycles
/// under profile \p Profile. \p LV and \p Graphs, when given, are a
/// pre-solved liveness and pre-built dependence graphs for \p F (e.g.
/// from a shared analysis/AnalysisCache.h bundle); graphs built for
/// another branch latency or speculation mode are ignored, and whatever
/// is missing is computed. Both are pure functions of the IR, so sharing
/// never changes the estimate.
PerfEstimate estimatePerformance(const Function &F, const MachineDesc &MD,
                                 const ProfileData &Profile,
                                 const PerfModelOptions &Opts =
                                     PerfModelOptions(),
                                 const Liveness *LV = nullptr,
                                 const BlockGraphs *Graphs = nullptr);

} // namespace cpr

#endif // SCHED_PERFMODEL_H
