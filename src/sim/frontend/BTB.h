//===- sim/frontend/BTB.h - Branch target buffer model ----------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative branch target buffer for the trace-driven simulator's
/// decoupled-frontend model (sim/TraceSimulator.h). The frontend can only
/// follow a taken branch without stalling when the BTB supplies its
/// target, so a taken branch whose target misses pays a redirect penalty
/// even when its *direction* was predicted perfectly -- a cost class the
/// flat mispredict-penalty model cannot express.
///
/// This is where control CPR's branch *elimination* shows up under a
/// strong direction predictor: fewer static branches on the hot path
/// means fewer BTB entries competing for the same sets, so the treated
/// code keeps its targets resident where the baseline thrashes.
///
/// Entries are keyed by branch OpId (the IR has no instruction
/// addresses) and store the layout target as a BlockId. Replacement is
/// strict LRU via a monotonic access stamp -- deterministic, like every
/// other simulator structure, so results are byte-identical at any
/// --threads setting.
///
//===----------------------------------------------------------------------===//

#ifndef SIM_FRONTEND_BTB_H
#define SIM_FRONTEND_BTB_H

#include "ir/Operand.h"
#include "ir/Operation.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cpr {

/// Geometry of a BTB: 2^SetBits sets of Ways entries each.
struct BTBConfig {
  unsigned SetBits = 6; ///< log2 of the number of sets (64 sets)
  unsigned Ways = 4;    ///< associativity

  unsigned numSets() const { return 1u << SetBits; }
  unsigned capacity() const { return numSets() * Ways; }

  /// Renders "<sets>x<ways>", e.g. "64x4".
  std::string str() const;

  bool operator==(const BTBConfig &) const = default;
};

/// Parses a geometry rendered by BTBConfig::str() ("64x4"). Sets must be
/// a power of two in [1, 2^20]; ways in [1, 64]. Returns false (leaving
/// \p Out untouched) on anything else.
bool parseBTBConfig(const std::string &Text, BTBConfig &Out);

/// Target-lookup counters, parallel to PredictorStats.
struct BTBStats {
  uint64_t Lookups = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;

  double missRate() const {
    return Lookups == 0 ? 0.0
                        : static_cast<double>(Misses) /
                              static_cast<double>(Lookups);
  }
  /// BTB misses per 1000 dispatched operations (\p DynOps).
  double mpki(uint64_t DynOps) const {
    return DynOps == 0 ? 0.0
                       : 1000.0 * static_cast<double>(Misses) /
                             static_cast<double>(DynOps);
  }
};

/// A set-associative, LRU-replaced branch target buffer.
class BTB {
public:
  explicit BTB(const BTBConfig &C = BTBConfig());

  /// Looks up taken branch \p Br expecting target \p Target, counting a
  /// hit only when the resident entry carries that exact target (a stale
  /// target still redirects fetch and is a miss). The entry is then
  /// installed/refreshed with the true target, LRU-evicting within the
  /// set when full. Returns true on a hit.
  bool access(OpId Br, BlockId Target);

  /// Clears all entries and the stats.
  void reset();

  const BTBConfig &config() const { return Config; }
  const BTBStats &stats() const { return Stats; }

private:
  struct Entry {
    OpId Br = InvalidOpId;
    BlockId Target = InvalidBlockId;
    uint64_t Stamp = 0; ///< last-access order, larger = more recent
    bool Valid = false;
  };

  BTBConfig Config;
  BTBStats Stats;
  std::vector<Entry> Entries; ///< set-major: set * Ways + way
  uint64_t Clock = 0;
};

} // namespace cpr

#endif // SIM_FRONTEND_BTB_H
