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
///    non-owning view of one solved set over the function's RegNumbering.
///    A LiveSet points into the Liveness that returned it and must not
///    outlive it; Liveness is neither copyable nor movable so that views
///    never dangle behind a relocation.
///
///    LivenessCache shares one solution among the phases of a pass that
///    edits its function region by region (the ICBM driver) and solves
///    again only after an edit the pass reports.
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
#include <optional>
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
class Liveness {
public:
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
  /// Layout index of \p B, or -1 when the function has no such block.
  int layoutOf(BlockId B) const {
    return B < LayoutOf.size() ? LayoutOf[B] : -1;
  }

  RegNumbering N;
  BitVector Observable;
  /// Block id -> layout index (-1 for ids without a block).
  std::vector<int> LayoutOf;
  DataflowSolver Solution;
};

/// The function-level liveness of a function that a pass edits region by
/// region (cpr/ControlCPR.h). It holds at most two solutions: the
/// *committed* one, for the function as the pass has committed it so far,
/// and a *tentative* one, for the current region's in-flight edits. get()
/// returns the solution for the function as it is now, solving on first
/// use. The pass reports every edit:
///
///  - noteEdit(): the function changed; drops the tentative solution.
///  - noteRestore(): every edit since the last commit was undone byte for
///    byte; the committed solution is current again without a solve.
///  - noteCommit(): the function as it is now is the committed one;
///    drops both solutions.
///
/// Exactness: Liveness(F) is a deterministic function of F's blocks,
/// operations and observable registers, so the solution of an unchanged
/// function is the one a fresh solve would build -- same sets, same
/// numbering, same iteration order. Only the reports need an argument:
/// one must precede the next get() after any change to those inputs.
/// Reporting an edit that changed nothing costs a solve, never a wrong
/// answer.
///
/// Lifetime: a report may destroy the solution it drops. A phase must not
/// hold a Liveness & from get(), a LiveSet view into it or a
/// PredicatedLiveness built on it across an edit report.
class LivenessCache {
public:
  explicit LivenessCache(const Function &F) : F(F) {}

  /// The solution for the function as it is now; solves on first use.
  const Liveness &get();

  void noteEdit() {
    Tentative.reset();
    Editing = true;
  }
  void noteRestore() {
    Tentative.reset();
    Editing = false;
  }
  void noteCommit() {
    Committed.reset();
    noteRestore();
  }

  /// Liveness solves performed so far.
  unsigned solves() const { return Solves; }

private:
  const Function &F;
  std::optional<Liveness> Committed;
  std::optional<Liveness> Tentative;
  /// True between an edit report and the next restore or commit.
  bool Editing = false;
  unsigned Solves = 0;
};

/// Predicated intra-block liveness: per operation index, the BDD
/// condition under which each register is live *before* the operation
/// executes. Registers are indexed by the function-level Liveness's
/// numbering, so that Liveness must outlive this object.
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
  /// A register (its numbering index) live under a condition other than
  /// False at one program point.
  struct LiveCond {
    uint32_t Idx;
    BDD::NodeRef Cond;
  };
  /// \p R's condition at program point \p Point (before op \p Point).
  BDD::NodeRef get(size_t Point, Reg R) const;

  const RegNumbering &N;
  // LiveBeforeOp[I] = the registers live before op I, in numbering order.
  // An extra trailing entry holds the block-end (fall-through) state.
  std::vector<std::vector<LiveCond>> LiveBeforeOp;
};

} // namespace cpr

#endif // ANALYSIS_LIVENESS_H
