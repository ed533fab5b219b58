//===- sched/Schedule.h - Cycle assignments for one region ------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result of scheduling one block: an issue cycle per operation and the
/// derived timing queries cycle pricing needs (block length and per-exit
/// departure cycles).
///
//===----------------------------------------------------------------------===//

#ifndef SCHED_SCHEDULE_H
#define SCHED_SCHEDULE_H

#include "ir/Function.h"
#include "machine/MachineDesc.h"

#include <vector>

namespace cpr {

/// Issue cycles for one block.
class Schedule {
public:
  Schedule() = default;
  Schedule(std::vector<int> Cycles, const Block &B, const MachineDesc &MD);

  /// Issue cycle of operation index \p OpIdx.
  int cycleOf(size_t OpIdx) const { return Cycles[OpIdx]; }

  /// Completion-based schedule length: max over operations of
  /// issue cycle + latency. This is the block's contribution for an entry
  /// that falls through.
  int length() const { return Length; }

  /// Cycle at which control leaves through the exit at \p OpIdx if it is
  /// taken: issue cycle + branch latency (fetch redirect point).
  int departureCycle(size_t OpIdx, const Block &B,
                     const MachineDesc &MD) const;

  bool empty() const { return Cycles.empty(); }
  size_t size() const { return Cycles.size(); }

private:
  std::vector<int> Cycles;
  int Length = 0;
};

} // namespace cpr

#endif // SCHED_SCHEDULE_H
