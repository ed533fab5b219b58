//===- machine/MachineDesc.h - EPIC machine models --------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine descriptions for the class of regular EPIC processors the paper
/// evaluates: a processor is an (I, F, M, B) tuple of integer, float,
/// memory, and branch unit counts, plus the special "sequential" processor
/// that issues exactly one operation of any type per cycle. Operation
/// latencies follow the paper's Section 7: simple integer 1, simple float 3,
/// load 2, store 1, multiply 3, divide 8, branch latency configurable
/// (1 in the paper's main experiment).
///
//===----------------------------------------------------------------------===//

#ifndef MACHINE_MACHINEDESC_H
#define MACHINE_MACHINEDESC_H

#include "ir/Opcode.h"
#include "ir/Operation.h"

#include <string>
#include <vector>

namespace cpr {

/// A regular EPIC processor model.
class MachineDesc {
public:
  /// Builds a custom machine. Pass \p Sequential to model the paper's
  /// one-op-per-cycle sequential processor (unit widths then unused).
  MachineDesc(std::string Name, int I, int F, int M, int B,
              bool Sequential = false, int BranchLatency = 1);

  /// The paper's five named configurations (Section 7).
  static MachineDesc sequential(int BranchLatency = 1);
  static MachineDesc narrow(int BranchLatency = 1);   // (2,1,1,1)
  static MachineDesc medium(int BranchLatency = 1);   // (4,2,2,1)
  static MachineDesc wide(int BranchLatency = 1);     // (8,4,4,2)
  static MachineDesc infinite(int BranchLatency = 1); // (75,25,25,25)

  /// All five models in the paper's column order: Seq, Nar, Med, Wid, Inf.
  static std::vector<MachineDesc> paperModels(int BranchLatency = 1);
  /// The paper model named \p Name (branch latency 1), or null if none.
  static const MachineDesc *findPaperModel(const std::string &Name);

  const std::string &getName() const { return Name; }

  /// Returns the number of units of \p Kind.
  int unitCount(UnitKind Kind) const {
    return Width[static_cast<unsigned>(Kind)];
  }

  /// True for the one-op-per-cycle sequential processor.
  bool isSequential() const { return Sequential; }

  /// Total issue width per cycle (1 for sequential).
  int issueWidth() const;

  /// Result latency of \p Op in cycles. Branch latency is the cycle count
  /// before a taken branch redirects fetch (its exposed delay region).
  /// Depends on nothing but the opcode and the branch latency, so
  /// machines of one branch latency share their dependence graphs
  /// (analysis/DepGraph.h, BlockGraphs).
  int latency(const Operation &Op) const;

  /// The configured branch latency.
  int branchLatency() const { return BranchLatency; }

  /// Cycles a mispredicted branch costs beyond its schedule position
  /// (fetch redirect + front-end refill), used by the trace-driven
  /// simulator (sim/TraceSimulator.h). The paper's static methodology
  /// corresponds to a penalty of 0.
  int mispredictPenalty() const { return MispredictPenalty; }
  MachineDesc &setMispredictPenalty(int Cycles) {
    assert(Cycles >= 0 && "penalty cannot be negative");
    MispredictPenalty = Cycles;
    return *this;
  }

  /// Operations the front end can fetch per cycle, used by the simulator's
  /// decoupled-frontend model (sim/TraceSimulator.h). Defaults to the
  /// issue width: a balanced frontend that only stalls on taken-branch
  /// fetch breaks. Narrower widths model a fetch-limited machine.
  int fetchWidth() const { return FetchWidth > 0 ? FetchWidth : issueWidth(); }
  MachineDesc &setFetchWidth(int Ops) {
    assert(Ops >= 1 && "fetch width must be at least 1");
    FetchWidth = Ops;
    return *this;
  }

  /// Cycles a taken branch costs when its target misses the BTB despite a
  /// correct direction prediction (a fetch redirect without a full
  /// pipeline restart); smaller than mispredictPenalty().
  int btbMissPenalty() const { return BTBMissPenalty; }
  MachineDesc &setBTBMissPenalty(int Cycles) {
    assert(Cycles >= 0 && "penalty cannot be negative");
    BTBMissPenalty = Cycles;
    return *this;
  }

private:
  std::string Name;
  int Width[4];
  bool Sequential;
  int BranchLatency;
  /// Default pipeline-restart cost: branch latency plus a short front-end
  /// refill, set in the constructor.
  int MispredictPenalty;
  /// 0 = track the issue width.
  int FetchWidth = 0;
  /// Default redirect cost: the branch latency plus one bubble, set in
  /// the constructor.
  int BTBMissPenalty;
};

} // namespace cpr

#endif // MACHINE_MACHINEDESC_H
