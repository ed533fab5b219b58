//===- sim/TraceSimulator.h - Trace-driven cycle simulation -----*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cycle pricing, trace-driven and static. One pricer, priceReplay(),
/// charges a per-block count table (TraceReplay) on one machine: every
/// exit costs its schedule cycles times how often control left through
/// it, plus a configurable pipeline-restart penalty on every branch a
/// pluggable predictor got wrong, BTB-miss penalties and fetch stalls.
/// Two builders fill the table, and neither depends on the machine:
///
///  - replayTrace() walks one interpreter run's branch stream
///    (interp/BranchTrace.h) through the function's layout, the predictor
///    and (optionally) the BTB, and counts, per block, entries,
///    mispredicts, BTB misses and departures per exit;
///  - replayProfile() reads a profile's block entries and branch taken
///    counts: the profiled frequencies the paper's Section 7 weights
///    schedules by.
///
/// One table thus serves every machine, and the predictor -- the costly
/// part, even with TAGE's O(1) folded histories (sim/frontend/TAGE.h) --
/// runs once per trace. simulateTrace() is replayTrace() and priceReplay()
/// in sequence; estimatePerformance(), the Table 2 estimate, is
/// replayProfile() priced with a zero penalty and the flat frontend.
///
/// A zero-penalty, flat-frontend simulation of a run and the estimate from
/// the same run's profile therefore price equal counts through the same
/// code, and their TotalCycles are equal by construction: the simulator is
/// the dynamic refinement of the paper's Section 7 static formula, not a
/// different model. The delta between the two is purely the misprediction
/// cost the paper ignores -- the quantity of interest when judging control
/// CPR's predictable-branches-for-one-bypass trade.
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

#include "analysis/ProfileData.h"
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

/// The decoupled-frontend cost model, off by default (the flat
/// mispredict-penalty accounting the estimate prices with, which keeps
/// the zero-penalty simulation equal to the estimate).
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

/// Options of the Table 2 estimate (estimatePerformance).
struct PerfModelOptions {
  enum class Mode {
    /// The paper's literal formula: every entry of a block is charged
    /// the block's schedule length.
    BlockLength,
    /// An entry that departs through a taken exit is charged up to that
    /// exit's departure cycle instead of the full block length. This
    /// realizes the exit-delay penalties Section 7 discusses (delayed
    /// exit branches hurting narrow machines) that the literal formula
    /// cannot express.
    ExitAware,
  };
  Mode WeightMode = Mode::ExitAware;
  /// Passed through to block scheduling (superblock speculation).
  bool AllowSpeculation = true;
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

/// A priced count table: a simulation, or the Table 2 estimate.
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
  /// One row per entered block, in layout order.
  std::vector<SimBlockStats> Blocks;
  /// Dependence graphs pricing built itself: 0 when the given BlockGraphs
  /// fit the machine, else one per entered non-empty block.
  size_t DepGraphsBuilt = 0;
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
  /// Taken departures per operation index (empty while there are none to
  /// record: before the first entry, or in a BlockLength profile table).
  std::vector<uint64_t> Departures;
};

/// A trace replayed through a function's layout, a predictor and
/// optionally a BTB: everything the simulator counts that does not depend
/// on the machine. Depends on the trace, the function, the predictor (kind
/// and configuration) and the BTB geometry, nothing else. replayProfile()
/// fills the same table from a profile.
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
  /// Layout index and operation index of the terminal halt or trap; a
  /// HaltBlock past the last block means none (a profile table counts
  /// halting entries as fall-throughs).
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

/// The count table of profile \p Profile of \p F: each block's entries and,
/// in ExitAware mode, each branch's taken count as its departures; the
/// rest of the entries, halting ones included, fall through (none when a
/// block's taken counts exceed its entries). In BlockLength mode every
/// entry falls through. Branch, predictor and dispatch counters stay 0.
TraceReplay replayProfile(const Function &F, const ProfileData &Profile,
                          PerfModelOptions::Mode WeightMode);

/// Prices replay \p R of \p F on \p MD: schedules the entered blocks and
/// charges each exit's cycles times its count, plus mispredict penalties,
/// BTB-miss penalties (when \p Opts.Frontend.UseBTB, in which case \p R
/// must have been replayed with the same BTB geometry) and fetch stalls.
/// A failed replay yields its Error. \p LV and \p Graphs, when given,
/// are a pre-solved liveness and pre-built dependence graphs for \p F
/// (e.g. from a shared analysis/AnalysisCache.h bundle); graphs built for
/// another branch latency or speculation mode are ignored, and whatever
/// is missing is computed. Both are pure functions of the IR, so sharing
/// never changes the result.
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

/// The paper's Section 7 estimate of \p F on \p MD under \p Profile (Table
/// 2): priceReplay(replayProfile(F, Profile, Opts.WeightMode), F, MD, ...)
/// with a zero penalty and the flat frontend, \p LV and \p Graphs as there.
/// Blocks the profile never entered are not scheduled.
SimEstimate estimatePerformance(const Function &F, const MachineDesc &MD,
                                const ProfileData &Profile,
                                const PerfModelOptions &Opts =
                                    PerfModelOptions(),
                                const Liveness *LV = nullptr,
                                const BlockGraphs *Graphs = nullptr);

} // namespace cpr

#endif // SIM_TRACESIMULATOR_H
