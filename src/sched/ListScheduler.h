//===- sched/ListScheduler.h - EPIC list scheduling -------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cycle-driven list scheduler for one linear region on a regular EPIC
/// machine. Priority is dependence height (longest latency path to a sink).
/// Resources are the machine's per-unit-kind counts (or one operation per
/// cycle for the sequential model). Legality comes entirely from the
/// predicate-cognizant dependence graph, which encodes the superblock
/// speculation rules and PlayDoh's branch-overlap restrictions.
///
//===----------------------------------------------------------------------===//

#ifndef SCHED_LISTSCHEDULER_H
#define SCHED_LISTSCHEDULER_H

#include "analysis/DepGraph.h"
#include "sched/Schedule.h"

namespace cpr {

/// Schedules block \p B (whose dependence graph is \p DG) on machine \p MD.
Schedule scheduleBlock(const Block &B, const DepGraph &DG,
                       const MachineDesc &MD);

/// Checks that \p S respects every edge of \p DG and the resource limits of
/// \p MD; returns a list of violations (empty when legal). Test helper.
std::vector<std::string> checkScheduleLegality(const Block &B,
                                               const DepGraph &DG,
                                               const MachineDesc &MD,
                                               const Schedule &S);

} // namespace cpr

#endif // SCHED_LISTSCHEDULER_H
