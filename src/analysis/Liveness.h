//===- analysis/Liveness.h - Register liveness ------------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two liveness analyses:
///
///  - Function-level set liveness (iterative dataflow over blocks), used by
///    the scheduler's speculation legality check and by dead-code
///    elimination. Predicated definitions under a non-true guard do not
///    kill (conservative). The solution stays in the dense solver's
///    bitsets (analysis/Dataflow.h): every query returns a LiveSet, a
///    non-owning view of one solved set over the solution's RegNumbering.
///    A LiveSet points into the Liveness that returned it and must not
///    outlive it; Liveness is neither copyable nor movable so that views
///    never dangle behind a relocation.
///
///    LivenessCache keeps one solution for a pass that edits its function
///    region by region (the ICBM driver and DCE) and updates it in place
///    after the edits the pass reports, re-solving only the registers
///    whose block equation an edit changed when it can (see
///    LivenessCache).
///
///  - Predicated (expression-valued) intra-block liveness, following the
///    predicate-aware dataflow of [JS96] that the paper's predicate
///    speculation phase depends on: the liveness of each register at each
///    point is a boolean expression (BDD) over the region's predicate
///    atoms, so "would promoting this operation's guard overwrite a live
///    value" is an exact query.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_LIVENESS_H
#define ANALYSIS_LIVENESS_H

#include "analysis/Dataflow.h"
#include "analysis/PQS.h"
#include "ir/Function.h"

#include <iterator>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace cpr {

/// A read-only view of one solved liveness set: the set bits of a
/// BitVector over a RegNumbering. Cheap to copy; iterates registers in
/// numbering order. The default-constructed view is the empty set.
class LiveSet {
public:
  LiveSet() = default;

  /// 1 when \p R is in the set, 0 otherwise (including registers the
  /// function never mentions).
  size_t count(Reg R) const {
    if (!Bits)
      return 0;
    int I = N->indexOf(R);
    return I >= 0 && Bits->test(static_cast<size_t>(I)) ? 1 : 0;
  }
  bool empty() const { return !Bits || Bits->none(); }
  /// Adds this set to \p V, a set over the same RegNumbering.
  void orInto(BitVector &V) const {
    if (Bits)
      V.orWith(*Bits);
  }

  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Reg;
    using difference_type = std::ptrdiff_t;
    using pointer = const Reg *;
    using reference = Reg;

    iterator() = default;
    Reg operator*() const { return N->regOf(I); }
    iterator &operator++() {
      I = Bits->findNext(I + 1);
      return *this;
    }
    iterator operator++(int) {
      iterator Old = *this;
      ++*this;
      return Old;
    }
    bool operator==(const iterator &O) const { return I == O.I; }
    bool operator!=(const iterator &O) const { return I != O.I; }

  private:
    friend class LiveSet;
    iterator(const BitVector *Bits, const RegNumbering *N, size_t I)
        : Bits(Bits), N(N), I(I) {}
    const BitVector *Bits = nullptr;
    const RegNumbering *N = nullptr;
    size_t I = BitVector::npos;
  };

  iterator begin() const {
    return Bits ? iterator(Bits, N, Bits->findFirst()) : end();
  }
  iterator end() const { return iterator(Bits, N, BitVector::npos); }

private:
  friend class Liveness;
  LiveSet(const BitVector &Bits, const RegNumbering &N) : Bits(&Bits), N(&N) {}

  const BitVector *Bits = nullptr;
  const RegNumbering *N = nullptr;
};

/// Function-level set liveness.
///
/// Each block's transfer is compiled once into a list of bit operations in
/// reverse op order (kill one register, gen one register, or OR in an exit
/// target's live-in or the observable set) and kept per block id with the
/// block's exit targets, so the fixed point iterates without touching IR
/// and an update recompiles only the blocks that changed.
class Liveness {
public:
  /// Solves \p F from scratch. The numbering holds every register \p F
  /// mentions, in first-appearance order (RegNumbering(F)), so views
  /// iterate in that order.
  explicit Liveness(const Function &F);

  // LiveSet views point into this object.
  Liveness(const Liveness &) = delete;
  Liveness &operator=(const Liveness &) = delete;

  /// Registers live into / out of block \p B; empty for an unknown block.
  LiveSet liveIn(BlockId B) const;
  LiveSet liveOut(BlockId B) const;

  /// Registers live when the branch/halt at op \p OpIdx of block \p B
  /// leaves the block (the live-in of its target, or the observable set
  /// for halt). \p B need not belong to the function: lint asks about
  /// synthesized path blocks whose branches target the function's blocks.
  LiveSet liveAtExit(const Block &B, size_t OpIdx) const;

  /// The register universe every view is over.
  const RegNumbering &numbering() const { return N; }

private:
  friend class LivenessCache;
  class Problem;

  /// One bit operation of a compiled block transfer.
  struct Step {
    enum Kind : uint8_t { OrObservable, OrTarget, Kill, Gen } K;
    /// Target block id (OrTarget) or register bit (Kill, Gen).
    uint32_t Idx;
    bool operator==(const Step &) const = default;
  };
  /// A block's compiled transfer and its exits as blockExits() lists
  /// their targets (InvalidBlockId for an exit that leaves the function).
  struct Transfer {
    std::vector<Step> Steps;
    std::vector<BlockId> Exits;
    /// Whether Exits ends with the layout fall-through, and whether the
    /// block has been compiled at all.
    bool FallsThrough = false;
    bool Compiled = false;
  };
  /// How update() brought the solution up to date.
  enum class Update { None, Partial, Full };

  /// Layout index of \p B, or -1 when the function has no such block.
  int layoutOf(BlockId B) const {
    return B < LayoutOf.size() ? LayoutOf[B] : -1;
  }
  /// Compiles block \p LayoutIdx of \p F, numbering new registers.
  Transfer compile(const Function &F, size_t LayoutIdx);
  /// The equation of each register \p Steps kill or gen, sorted by
  /// register bit. Its first mention in program order fixes it: 0 for a
  /// read (the register is upward-exposed), 1 + the number of exit steps
  /// ahead of it for a sure write.
  static std::vector<std::pair<uint32_t, uint32_t>>
  equations(const std::vector<Step> &Steps);
  /// Re-reads \p F's layout; true if it changed. Transfers of blocks
  /// that left the layout are dropped.
  bool readLayout(const Function &F);
  /// Solves every register from the empty set over the cached transfers,
  /// and recounts Exposed.
  void solveAll();
  /// Resets the registers in \p Dirty to the empty set and solves them
  /// alone; every other register keeps its solution.
  void solveSome(const BitVector &Dirty);
  /// Brings the solution up to date with \p F after edits to the blocks
  /// \p Edited (ids; blocks no longer in the layout are ignored).
  Update update(const Function &F, const std::vector<BlockId> &Edited);

  RegNumbering N;
  BitVector Observable;
  /// Block ids in layout order, and block id -> layout index (-1 for ids
  /// without a block).
  std::vector<BlockId> Layout;
  std::vector<int> LayoutOf;
  /// Compiled transfers by block id (empty for ids without a block).
  std::vector<Transfer> Transfers;
  /// Every block's exit targets as layout indices, for the solver.
  DataflowSolver::ExitLists Exits;
  /// Per register bit, the number of layout blocks it is upward-exposed
  /// in.
  std::vector<int32_t> Exposed;
  std::optional<DataflowSolver> Solution;
};

/// The function-level liveness of a function that a pass edits block by
/// block: one Liveness, updated in place. get() returns the solution for
/// the function as it is now, solving from scratch on first use. The pass
/// reports each block whose operations it changed with noteEdit(); blocks
/// added, removed or moved in the layout need no report, since get()
/// compares the layout with the one it last solved. The function's
/// observable registers must not change while the cache is in use.
///
/// An update recompiles the reported blocks, the new ones, and those whose
/// layout successor changed, keeping every other block's compiled
/// transfer. A recompiled block whose steps and exits come out unchanged
/// needs nothing more. Otherwise:
///
///  - *Partial re-solve*, when the layout and the set of exit targets of
///    every recompiled block are unchanged. Liveness is bit-separable:
///    every step ORs a target's live-in or the observable set bitwise, or
///    kills or gens one bit, so each register has its own equations and
///    its own least fixed point. Only registers whose equation changed in
///    some recompiled block need solving again:
///
///    - *The equation.* A block's out-set is the OR of its exit targets'
///      live-ins, the same before and after. Its live-in of a register is
///      fixed by the register's first mention in program order: a read
///      makes it live-in; a sure write makes it the OR of the live-ins of
///      the exits ahead of that write; no mention passes the out-set
///      through. So when the old and the new transfer have the same exits
///      in the same order -- hence the same exit steps -- the equation is
///      the register's code in Liveness::equations(), and a register is
///      dirty when its code differs. Where the exits differ in order, a
///      register's position among them may have changed unseen, and
///      every register the old or the new transfer kills or gens is
///      dirty.
///    - *Live nowhere.* A register that is not observable and is
///      upward-exposed (read before any sure write) in no block has the
///      empty set as its least fixed point: no equation ever sets its
///      bit. A dirty register that is so both before and after the edit
///      keeps its all-clear solution and is dropped. A per-register count
///      of the blocks it is upward-exposed in answers this; the full
///      solve recounts it and each changed transfer adjusts it.
///
///    The registers left dirty are reset to the empty set in every block
///    and solved alone (a DataflowSolver over just those bits); the rest
///    keep their solution. They restart from the empty set rather than
///    from their old solution: iterating from the old solution reaches
///    *a* fixed point, but a register an edit no longer reads could stay
///    live around a loop. When none is left, nothing is solved and the
///    sets only grow to the numbering.
///  - *Full re-solve* otherwise (restructure, motion's compensation
///    blocks, rollback): every register from the empty set over the cached
///    transfers.
///
/// The numbering only grows: registers an edit introduces are appended,
/// and registers no longer mentioned keep a bit that stays clear unless
/// observable. Views therefore iterate in numbering order, which after an
/// edit is not the first-appearance order of a fresh Liveness(F); clients
/// that depend on iteration order must solve afresh.
///
/// Lifetime: get() may rebuild the sets a view points into. A phase must
/// not hold a LiveSet view, or a PredicatedLiveness built on the solution,
/// across an edit report and a later get().
class LivenessCache {
public:
  explicit LivenessCache(const Function &F) : F(F) {}

  /// The solution for the function as it is now.
  const Liveness &get();

  /// Reports that block \p B's operations changed (or may have).
  void noteEdit(const Block &B) { Edited.push_back(B.getId()); }

  /// Full solves (the first one included) and partial re-solves so far.
  unsigned solves() const { return Solves; }
  unsigned partialSolves() const { return PartialSolves; }

private:
  const Function &F;
  std::unique_ptr<Liveness> L;
  std::vector<BlockId> Edited;
  unsigned Solves = 0;
  unsigned PartialSolves = 0;
};

/// Predicated intra-block liveness: per operation index, the BDD
/// condition under which each register is live *before* the operation
/// executes. Registers are indexed by the function-level Liveness's
/// numbering, so that Liveness must outlive this object.
///
/// The backward walk logs each change of a register's condition with the
/// program point it takes effect at (the block-end state is logged at the
/// last point), so memory is linear in the changes rather than in
/// operations times live registers; a query binary-searches the
/// register's log.
class PredicatedLiveness {
public:
  /// \param F the function; \p B the analyzed block; \p PQS expressions
  /// for \p B; \p L function-level liveness (for exit live sets).
  PredicatedLiveness(const Function &F, const Block &B, RegionPQS &PQS,
                     const Liveness &L);

  /// The condition under which \p R is live immediately after op \p OpIdx.
  /// Returns BDD::False when \p R is dead there.
  BDD::NodeRef liveAfter(size_t OpIdx, Reg R) const;

  /// The condition under which \p R is live immediately before op \p OpIdx.
  BDD::NodeRef liveBefore(size_t OpIdx, Reg R) const;

private:
  /// From program point Point (before op Point; the block end is point
  /// size()) back to the register's next logged change, it is live under
  /// Cond.
  struct Change {
    uint32_t Point;
    BDD::NodeRef Cond;
  };
  /// \p R's condition at program point \p Point.
  BDD::NodeRef get(size_t Point, Reg R) const;

  const RegNumbering &N;
  size_t NumPoints;
  /// Register I's changes are Log[Begin[I]] up to Log[Begin[I + 1]], in
  /// walk order: points never increase, and of two changes at one point
  /// the later holds.
  std::vector<uint32_t> Begin;
  std::vector<Change> Log;
};

} // namespace cpr

#endif // ANALYSIS_LIVENESS_H
