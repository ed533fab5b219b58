//===- sim/TraceSimulator.h - Trace-driven cycle simulation -----*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A trace-driven cycle-level simulator: replays one interpreter run's
/// branch stream (interp/BranchTrace.h) over the scheduled blocks of a
/// function, charging schedule-accurate cycles per block entry -- the same
/// departure-cycle accounting as the ExitAware performance model -- plus a
/// configurable pipeline-restart penalty on every branch a pluggable
/// predictor gets wrong.
///
/// Simulation is two steps. replayTrace() walks the trace through the
/// function's layout, the predictor and (optionally) the BTB, and counts,
/// per block, entries, mispredicts, BTB misses and departures per exit;
/// none of that depends on the machine. priceReplay() then prices those
/// counts on one machine: every exit costs its schedule cycles times how
/// often control left through it, plus the penalties and fetch stalls.
/// One replay thus serves every machine, and the predictor -- the costly
/// part, even with TAGE's O(1) folded histories (sim/frontend/TAGE.h) --
/// runs once per trace. simulateTrace() is the two in sequence.
///
/// With a zero penalty (and the frontend model off) the produced
/// SimEstimate::TotalCycles is exactly the ExitAware
/// PerfEstimate::TotalCycles for the same run: the simulator is the
/// dynamic refinement of the paper's Section 7 static formula, not a
/// different model. The delta between the two is therefore purely the
/// misprediction cost the paper ignores -- the quantity of interest when
/// judging control CPR's predictable-branches-for-one-bypass trade.
///
/// The optional decoupled-frontend model (FrontendOptions) refines the
/// flat penalty further, charging three separate cost classes
/// (docs/SIMULATOR.md):
///
///  - direction mispredicts: the full MispredictPenalty, as before;
///  - BTB target misses: a taken branch whose target is not resident in
///    the set-associative BTB (sim/frontend/BTB.h) pays the (smaller)
///    BTB-miss redirect penalty even when its direction was right;
///  - fetch-bandwidth stalls: each block entry can dispatch at most
///    FetchWidth operations per cycle and a taken branch ends its fetch
///    packet, so a block whose schedule finishes faster than its
///    operations can be fetched stalls for the difference.
///
//===----------------------------------------------------------------------===//

#ifndef SIM_TRACESIMULATOR_H
#define SIM_TRACESIMULATOR_H

#include "interp/BranchTrace.h"
#include "machine/MachineDesc.h"
#include "sim/BranchPredictor.h"
#include "sim/frontend/BTB.h"

#include <optional>
#include <string>
#include <vector>

namespace cpr {

class BlockGraphs;
class Liveness;

/// The decoupled-frontend cost model, off by default (the legacy flat
/// mispredict-penalty accounting, which preserves the penalty-0 ==
/// ExitAware invariant above).
struct FrontendOptions {
  /// Model fetch bandwidth: every block entry is limited to FetchWidth
  /// operations fetched per cycle, and a taken branch breaks the fetch
  /// packet (the block entry's fetch ends there).
  bool Decoupled = false;
  /// Operations fetched per cycle; non-positive selects the machine's
  /// fetchWidth() knob.
  int FetchWidth = 0;
  /// Model a branch target buffer: taken branches look their targets up
  /// and pay BTBMissPenalty on a target miss that a correct direction
  /// prediction would otherwise have hidden.
  bool UseBTB = false;
  /// BTB geometry when UseBTB is set.
  BTBConfig BTB;
  /// Cycles charged per BTB target miss on a direction-correct taken
  /// branch. Negative selects the machine's btbMissPenalty() knob.
  int BTBMissPenalty = -1;
};

/// Simulation options.
struct SimOptions {
  /// Cycles charged per misprediction (fetch redirect + pipeline refill).
  /// Negative selects the machine's own penalty knob.
  int MispredictPenalty = -1;
  /// Passed through to block scheduling (superblock speculation).
  bool AllowSpeculation = true;
  /// Decoupled-frontend refinement (BTB + fetch bandwidth).
  FrontendOptions Frontend;
};

/// Per-block simulation detail.
struct SimBlockStats {
  BlockId Id = InvalidBlockId;
  std::string Name;
  uint64_t Entries = 0;
  uint64_t Mispredicts = 0;
  uint64_t BTBMisses = 0;
  uint64_t FetchStallCycles = 0;
  double Cycles = 0.0; ///< includes penalty cycles charged in this block
};

/// Whole-run dynamic estimate, parallel to sched/PerfModel.h's
/// PerfEstimate.
struct SimEstimate {
  double TotalCycles = 0.0;
  /// Cycles of TotalCycles attributable to misprediction penalties.
  uint64_t PenaltyCycles = 0;
  /// Operations dispatched along the replayed path (the denominator of
  /// MPKI; equals the interpreter's DynStats::OpsDispatched).
  uint64_t OpsDispatched = 0;
  uint64_t Branches = 0;
  uint64_t Mispredicts = 0;
  uint64_t BlockEntries = 0;
  /// --- Decoupled-frontend counters (zero when the model is off) ------
  /// Target lookups/hits/misses of taken branches in the BTB.
  uint64_t BTBLookups = 0;
  uint64_t BTBHits = 0;
  uint64_t BTBMisses = 0;
  /// Cycles of TotalCycles charged for direction-correct BTB misses.
  uint64_t BTBPenaltyCycles = 0;
  /// Cycles of TotalCycles where the backend waited on fetch bandwidth.
  uint64_t FetchStallCycles = 0;
  /// Final predictor counters (Lookups == Branches on success).
  PredictorStats Pred;
  std::vector<SimBlockStats> Blocks;
  /// Non-empty when the trace could not be replayed against the function
  /// (diverged ids, missing terminal, ...); the
  /// counters are then unspecified.
  std::string Error;

  bool ok() const { return Error.empty(); }
  /// Mispredicts per 1000 dispatched operations.
  double mpki() const {
    return OpsDispatched == 0 ? 0.0
                              : 1000.0 * static_cast<double>(Mispredicts) /
                                    static_cast<double>(OpsDispatched);
  }
  /// BTB target misses per 1000 dispatched operations.
  double btbMpki() const {
    return OpsDispatched == 0 ? 0.0
                              : 1000.0 * static_cast<double>(BTBMisses) /
                                    static_cast<double>(OpsDispatched);
  }
};

/// What one replay counted in one block.
struct ReplayBlock {
  uint64_t Entries = 0;
  uint64_t Mispredicts = 0;
  /// BTB target misses of direction-correct taken branches (0 without a
  /// BTB).
  uint64_t BTBMisses = 0;
  /// Entries that fell through the end of the block.
  uint64_t FallThroughs = 0;
  /// Taken departures per operation index (sized to the block once it is
  /// entered, empty before).
  std::vector<uint64_t> Departures;
};

/// A trace replayed through a function's layout, a predictor and
/// optionally a BTB: everything the simulator counts that does not depend
/// on the machine. Depends on the trace, the function, the predictor (kind
/// and configuration) and the BTB geometry, nothing else.
struct TraceReplay {
  /// As SimEstimate::Error; the counters are unspecified when set.
  std::string Error;
  PredictorStats Pred;
  /// The BTB the replay looked taken targets up in; none without one.
  std::optional<BTBConfig> BTBGeometry;
  BTBStats BTB;
  uint64_t Branches = 0;
  uint64_t Mispredicts = 0;
  uint64_t BlockEntries = 0;
  uint64_t OpsDispatched = 0;
  /// Layout index and operation index of the terminal halt or trap.
  size_t HaltBlock = 0;
  size_t HaltOp = 0;
  /// Per layout index.
  std::vector<ReplayBlock> Blocks;

  bool ok() const { return Error.empty(); }
};

/// Replays \p Trace through \p F's layout, predicting every branch with
/// \p Pred (which is trained in place; reset it between runs) and, when
/// \p FE.UseBTB, looking taken targets up in a fresh BTB of geometry
/// \p FE.BTB; the rest of \p FE is for pricing. The trace must carry a
/// terminal marker, i.e. come from a halted interpreter run of exactly
/// this function.
TraceReplay replayTrace(const Function &F, const BranchTrace &Trace,
                        BranchPredictor &Pred,
                        const FrontendOptions &FE = FrontendOptions());

/// Prices replay \p R of \p F on \p MD: schedules the entered blocks and
/// charges each exit's cycles times its count, plus mispredict penalties,
/// BTB-miss penalties (when \p Opts.Frontend.UseBTB, in which case \p R
/// must have been replayed with the same BTB geometry) and fetch stalls.
/// A failed replay yields its Error. \p LV and \p Graphs, when given,
/// are a pre-solved liveness and pre-built dependence graphs for \p F
/// (e.g. from a shared analysis/AnalysisCache.h bundle); as in
/// estimatePerformance, graphs that do not fit \p MD are ignored and
/// whatever is missing is computed.
SimEstimate priceReplay(const TraceReplay &R, const Function &F,
                        const MachineDesc &MD,
                        const SimOptions &Opts = SimOptions(),
                        const Liveness *LV = nullptr,
                        const BlockGraphs *Graphs = nullptr);

/// Simulates \p Trace through \p F on \p MD:
/// priceReplay(replayTrace(F, Trace, Pred, Opts.Frontend), F, MD, Opts,
/// LV, Graphs), whose comments describe the arguments. When the result
/// has an Error, the text is that of the first inconsistency the replay
/// met (diverged ids, missing terminal, ...) and the
/// counters are unspecified.
SimEstimate simulateTrace(const Function &F, const MachineDesc &MD,
                          const BranchTrace &Trace, BranchPredictor &Pred,
                          const SimOptions &Opts = SimOptions(),
                          const Liveness *LV = nullptr,
                          const BlockGraphs *Graphs = nullptr);

} // namespace cpr

#endif // SIM_TRACESIMULATOR_H
