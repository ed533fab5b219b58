//===- analysis/Dataflow.h - Generic dense dataflow solver ------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic forward/backward iterative dataflow solver over dense
/// bitsets (support/BitVector.h), the analysis substrate ROADMAP O3 calls
/// for. A DataflowProblem names the direction, the meet (union or
/// intersection), a dense universe, and an in-place per-block transfer;
/// the solver owns the block ordering, the meet over CFG edges, and the
/// fixed-point loop.
///
/// Predicate partitioning: transfers that depend on guard predicates
/// consult PQS/BDD through predicatedWriteKind() — a definition kills a
/// fact only when its write condition is provably True, generates it
/// unless provably False, and on BDD node-budget exhaustion (Invalid)
/// both answers degrade to Maybe, which every client must treat
/// conservatively (no kill, possible gen). The exact BDD-valued
/// refinement of the same partition lives in PredicatedLiveness
/// (analysis/Liveness.h); this layer is its dense block-level companion.
///
/// Clients in this file:
///  - RegNumbering       dense Reg <-> index mapping that only grows
///  - ReachingDefBlocks  "some def of R in another block reaches this
///                       block's entry" (forward/union), the framework
///                       host for lint's defReachesEntry exemption
///  - DefiniteAssignment "R is surely written on every path to this
///                       block's entry" (forward/intersection), used by
///                       the uninit-read check to prune proven-safe reads
///
/// Function-level liveness (analysis/Liveness.cpp) runs on the same
/// solver with a backward/union problem.
///
/// Thread-safety: all classes are immutable after construction and may be
/// shared across threads.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_DATAFLOW_H
#define ANALYSIS_DATAFLOW_H

#include "ir/Function.h"
#include "support/BitVector.h"

#include <vector>

namespace cpr {

class RegionPQS;

/// Dense numbering of registers, the bit universe of every dataflow
/// problem below. RegNumbering(F) numbers every register \p F mentions
/// (guards, sources, definitions, observables) in first-appearance order
/// over the layout; insert() appends further registers, so a numbering
/// only grows and an index, once given, never changes.
///
/// Lookup goes through one paged id table per register class: a page of
/// PageSize slots exists only once a register with an id in its range is
/// numbered, so a function naming an id near MaxRegId pays one page (plus
/// a directory of one entry per page up to that id), not a slot for every
/// id below it.
class RegNumbering {
public:
  explicit RegNumbering(const Function &F);

  size_t size() const { return Regs.size(); }
  /// Dense index of \p R, or -1 when \p R is not numbered.
  int indexOf(Reg R) const {
    const std::vector<uint32_t> &Dir = PageOf[classIdx(R)];
    uint32_t P = R.getId() >> PageBits;
    if (P >= Dir.size() || Dir[P] == NoPage)
      return -1;
    return Slots[Dir[P] + (R.getId() & (PageSize - 1))];
  }
  /// Index of \p R, numbering it first when it is new. The hardwired true
  /// predicate and the invalid register get no index (-1): the predicate
  /// is never defined and no transfer tracks it.
  int insert(Reg R);
  Reg regOf(size_t I) const { return Regs[I]; }

  /// Bytes held by the id tables (directories and pages).
  size_t tableBytes() const;

private:
  static constexpr unsigned PageBits = 10;
  static constexpr uint32_t PageSize = 1u << PageBits;
  static constexpr uint32_t NoPage = ~0u;
  static unsigned classIdx(Reg R) {
    return static_cast<unsigned>(R.getClass());
  }

  /// Per class: page number -> offset of the page in Slots, or NoPage.
  std::vector<uint32_t> PageOf[NumRegClasses];
  /// The pages; a slot holds a register's index, or -1.
  std::vector<int32_t> Slots;
  std::vector<Reg> Regs;
};

/// How a definition slot behaves for dataflow purposes once its guard
/// predicate is taken into account.
enum class WriteKind {
  Always, ///< writes whenever control reaches the op (kills + gens)
  Maybe,  ///< may or may not write (gens, never kills)
  Never,  ///< provably never writes (neither kills nor gens)
};

/// Classifies definition slot \p D of op \p OpIdx of the block \p PQS was
/// built over. Consults the PQS/BDD guard expression when one is
/// available: a guard equal to BDD::True upgrades a predicated write to
/// Always, a guard equal to BDD::False (an unsatisfiable predicate)
/// downgrades it to Never, and BDD::Invalid (node-budget exhaustion)
/// yields the conservative Maybe. Passing null \p PQS uses the purely
/// syntactic classification (unguarded / FRP-positional => Always).
WriteKind predicatedWriteKind(const Operation &Op, const DefSlot &D,
                              const RegionPQS *PQS, size_t OpIdx);

/// One dataflow problem instance. The same object may be handed to many
/// solvers; it must not alias the solver's state.
class DataflowProblem {
public:
  enum class Direction { Forward, Backward };
  enum class Meet { Union, Intersection };

  virtual ~DataflowProblem() = default;

  virtual Direction direction() const = 0;
  virtual Meet meet() const = 0;
  /// Number of bits in every set.
  virtual size_t universeSize() const = 0;

  /// Value at the boundary: the entry block's in-set (Forward) or the
  /// contribution of function-leaving exits (Backward). Defaults to the
  /// empty set. \p V arrives sized and cleared.
  virtual void boundary(BitVector &V) const { (void)V; }

  /// In-place transfer through block \p LayoutIdx: \p V arrives holding
  /// the merged in-set (Forward) or merged out-set (Backward) and must
  /// leave holding the out-set (Forward) or in-set (Backward). The
  /// current global solution is readable through \p InSets (per-block
  /// in-sets, indexed by layout), which backward problems use to fold
  /// interior-exit contributions at their op positions.
  virtual void transfer(size_t LayoutIdx, BitVector &V,
                        const std::vector<BitVector> &InSets) const = 0;
};

/// Runs \p P to a fixed point over a CFG, starting every set from the
/// initial value (empty for union, full for intersection). Results are
/// per layout index.
class DataflowSolver {
public:
  /// Per block, the layout indices of its exit targets in the order
  /// blockExits() lists them; -1 for an exit that leaves the function
  /// (halt, trap, falling off the end, or a target with no block).
  using ExitLists = std::vector<std::vector<int>>;

  /// Solves over \p F's blocks and exits.
  DataflowSolver(const Function &F, const DataflowProblem &P);
  /// Solves over the CFG \p Exits, which a caller that keeps it across
  /// solves (analysis/Liveness.h) need not rebuild from the IR.
  DataflowSolver(const ExitLists &Exits, const DataflowProblem &P);

  const BitVector &in(size_t LayoutIdx) const { return InSets[LayoutIdx]; }
  const BitVector &out(size_t LayoutIdx) const { return OutSets[LayoutIdx]; }
  /// Number of full passes over the block list until the fixed point.
  unsigned iterations() const { return Iterations; }

  /// Grows every set to \p Bits bits; the new bits are clear.
  void grow(size_t Bits);
  /// Copies the solution of a problem over a sub-universe into this one.
  /// \p Bits is the sub-universe as a set over this universe: its K-th
  /// set bit is bit K of \p Sub's sets. Every set first grows to
  /// Bits.size() bits, then takes \p Sub's values on \p Bits and keeps
  /// its own elsewhere. Both solvers must cover the same blocks.
  void patch(const DataflowSolver &Sub, const BitVector &Bits);

private:
  std::vector<BitVector> InSets;
  std::vector<BitVector> OutSets;
  unsigned Iterations = 0;
};

/// Forward/union client: bit (L, R) set iff some block other than the
/// program point itself holds a definition of R with a control-flow path
/// of at least one edge to the entry of block L — the exemption
/// use-before-def and compensation-completeness apply to registers that
/// "arrive from elsewhere" (including around loops). Unreachable blocks
/// participate exactly like the reachability closure it replaces: any
/// def-holding block seeds its successors.
class ReachingDefBlocks {
public:
  ReachingDefBlocks(const Function &F, const RegNumbering &N);

  /// True when a definition of \p R in some block can reach the entry of
  /// block \p LayoutIdx.
  bool reachesEntry(Reg R, size_t LayoutIdx) const;
  /// True when \p R has at least one definition anywhere in the function.
  bool hasAnyDef(Reg R) const;

  const RegNumbering &numbering() const { return N; }

private:
  const RegNumbering &N;
  std::vector<BitVector> ReachIn;
  BitVector AnyDef;
};

/// Forward/intersection client: bit (L, R) set iff every path from the
/// function entry to the entry of block L passes a definition that
/// surely writes R (predicate-aware: guarded writes under a non-True,
/// non-FRP predicate do not count). Blocks unreachable from the entry
/// keep the vacuous top value (everything assigned): no path from the
/// entry reaches them, so the universally-quantified claim holds — and
/// clients only use this analysis to *prune* candidate violations, never
/// to report them.
class DefiniteAssignment {
public:
  DefiniteAssignment(const Function &F, const RegNumbering &N);

  /// True when \p R is surely written on every entry path of block
  /// \p LayoutIdx.
  bool assignedAtEntry(Reg R, size_t LayoutIdx) const;

private:
  const RegNumbering &N;
  std::vector<BitVector> AssignedIn;
};

} // namespace cpr

#endif // ANALYSIS_DATAFLOW_H
