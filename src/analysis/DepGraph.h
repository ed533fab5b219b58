//===- analysis/DepGraph.h - Region dependence graph ------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependence graph over one linear region (block). Nodes are the
/// block's operation indices; edges carry a kind and a latency constraint
/// cycle(To) >= cycle(From) + Latency (latencies may be non-positive for
/// relaxed ordering constraints such as sinking side effects into branch
/// delay slots).
///
/// The construction is *predicate cognizant*: register and memory
/// dependences between operations with provably disjoint guard predicates
/// are pruned using the Predicate Query System, and same-register wired
/// cmpp writes are unordered among themselves (the PlayDoh property ICBM's
/// height-reduced FRP evaluation relies on). Control dependences implement
/// superblock speculation rules: an operation may move above an earlier
/// branch unless it has side effects or clobbers a register live at that
/// branch's target, in both cases unless its guard is disjoint from the
/// branch's taken condition.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_DEPGRAPH_H
#define ANALYSIS_DEPGRAPH_H

#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "ir/Function.h"
#include "machine/MachineDesc.h"

#include <cassert>
#include <optional>
#include <vector>

namespace cpr {

/// Kind of a dependence edge.
enum class DepKind : uint8_t {
  Flow,    ///< register def -> use (true dependence)
  Anti,    ///< register use -> def
  Output,  ///< register def -> def
  Mem,     ///< memory ordering (store/store, store/load, load/store)
  Control, ///< branch/terminator ordering
};

/// Returns a printable name for \p K.
const char *depKindName(DepKind K);

/// One dependence edge: cycle(To) >= cycle(From) + Latency.
struct DepEdge {
  uint32_t From;
  uint32_t To;
  DepKind Kind;
  int Latency;
};

/// Options controlling dependence graph construction.
struct DepGraphOptions {
  /// Allow speculation of safe operations above branches (superblock
  /// scheduling). When false, every later operation is control dependent
  /// on every earlier branch.
  bool AllowSpeculation = true;
};

/// The dependence graph of one block.
class DepGraph {
public:
  /// Builds the graph for block \p B of \p F under machine \p MD.
  /// \p PQS and \p LV must be built for the same block/function.
  DepGraph(const Function &F, const Block &B, const MachineDesc &MD,
           RegionPQS &PQS, const Liveness &LV,
           const DepGraphOptions &Opts = DepGraphOptions());

  size_t numNodes() const { return NumNodes; }
  const std::vector<DepEdge> &edges() const { return Edges; }

  /// Outgoing / incoming adjacency (edge indices).
  const std::vector<uint32_t> &succs(uint32_t Node) const {
    return SuccIdx[Node];
  }
  const std::vector<uint32_t> &preds(uint32_t Node) const {
    return PredIdx[Node];
  }
  const DepEdge &edge(uint32_t EdgeIdx) const { return Edges[EdgeIdx]; }

  /// Longest-path distance from any source to each node, counting edge
  /// latencies clamped below at 0 (an operation never *needs* to start
  /// before its predecessors). Index = node.
  std::vector<int> depths() const;

  /// Longest-path distance from each node to any sink, including the
  /// node's own latency. This is the scheduler's priority function.
  std::vector<int> heights() const;

  /// The region's dependence height: max over nodes of depth + latency.
  /// Matches the paper's notion of height (schedule length on a machine
  /// with unbounded resources).
  int criticalPathLength() const;

  /// Transitive data-dependence successors of node \p Start (Flow edges
  /// only, optionally including Mem and Control), as a sorted list of
  /// nodes. Used by ICBM's separability test and off-trace motion.
  std::vector<uint32_t> transitiveSuccessors(uint32_t Start,
                                             bool IncludeMem = true,
                                             bool IncludeControl = true) const;

  /// Latency of node \p N on the construction machine.
  int nodeLatency(uint32_t N) const { return NodeLatency[N]; }

private:
  void addEdge(uint32_t From, uint32_t To, DepKind Kind, int Latency);

  size_t NumNodes;
  std::vector<DepEdge> Edges;
  std::vector<std::vector<uint32_t>> SuccIdx;
  std::vector<std::vector<uint32_t>> PredIdx;
  std::vector<int> NodeLatency;
};

/// The dependence graphs of every block of one function for one branch
/// latency. A DepGraph sees its machine only through MachineDesc::latency,
/// a function of the opcode and the branch latency alone, so every machine
/// with that branch latency shares these graphs; only the scheduler needs
/// the machine's issue resources. Immutable after construction: share
/// across threads through const access.
class BlockGraphs {
public:
  /// Builds the graph of every non-empty block of \p F for \p MD's
  /// latencies. \p LV must be solved for \p F.
  BlockGraphs(const Function &F, const Liveness &LV, const MachineDesc &MD,
              const DepGraphOptions &Opts = DepGraphOptions());

  /// Whether \p MD under \p Opts builds exactly these graphs.
  bool fits(const MachineDesc &MD, const DepGraphOptions &Opts) const {
    return MD.branchLatency() == BranchLatency &&
           Opts.AllowSpeculation == AllowSpeculation;
  }

  /// The graph of the block at layout index \p LayoutIdx; null for an
  /// empty block.
  const DepGraph *graph(size_t LayoutIdx) const {
    assert(LayoutIdx < Graphs.size() && "graphs of another function");
    return Graphs[LayoutIdx] ? &*Graphs[LayoutIdx] : nullptr;
  }

  /// Graphs built: the function's non-empty blocks.
  size_t size() const { return NumGraphs; }

private:
  int BranchLatency;
  bool AllowSpeculation;
  std::vector<std::optional<DepGraph>> Graphs;
  size_t NumGraphs = 0;
};

} // namespace cpr

#endif // ANALYSIS_DEPGRAPH_H
