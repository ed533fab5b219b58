//===- interp/Interpreter.h - Functional EPIC interpreter -------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A functional (non-timed) interpreter for the EPIC IR. It executes
/// operations in program order with PlayDoh predication semantics:
/// operations whose guard is false are nullified, except cmpp
/// unconditional targets, which write 0 under a false guard (Table 1).
///
/// Three project roles:
///  - correctness oracle: property tests run original and transformed code
///    on identical inputs and compare final memory + observable registers;
///  - profiler: collects branch reach/taken counts and block entry counts
///    (via Profiler.h);
///  - dynamic statistics: operation and branch counts for the paper's
///    Table 3 ("D tot", "D br").
///
/// Each call decodes the function once into a flat array -- one entry per
/// operation in layout order, each block closed by a fall-through entry,
/// a start offset per block -- and runs one dispatch loop over it. A
/// source is an index into the register file the operation reads (an
/// immediate sits in a constant pool after the registers); the files are
/// sized once, from the highest register id the function, its
/// observables, the initial bindings and the watches name (at most
/// MaxRegId + 1 registers each), and no access grows them. A taken branch
/// finds its target through a BlockId -> layout table: an unwritten BTR
/// reads as block id 0, and an id no block has ends the run with "branch
/// to invalid target". Profile counts are kept dense per block and per
/// branch and flushed into the ProfileData on every exit (halt, trap,
/// error, step limit). Watches, the store trace and the branch trace run
/// on the same loop; an unwatched operation does no watch work. Memory
/// is paged (interp/Memory.h).
///
/// Integer arithmetic is evalIntArith (ir/Opcode.h), which Simplify's
/// constant folding shares: results wrap in two's complement -- add, sub
/// and mul wrap, INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0 --
/// and division or remainder by zero reads as 0.
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_INTERPRETER_H
#define INTERP_INTERPRETER_H

#include "analysis/ProfileData.h"
#include "interp/BranchTrace.h"
#include "interp/Memory.h"
#include "ir/Function.h"

#include <string>
#include <vector>

namespace cpr {

/// Dynamic operation counts from one run.
struct DynStats {
  /// Operations dispatched (fetched into issue slots), including nullified
  /// predicated operations -- the EPIC notion of "executed operations" the
  /// paper's Table 3 counts.
  uint64_t OpsDispatched = 0;
  /// Operations whose guard was true.
  uint64_t OpsEffective = 0;
  /// Branch operations dispatched.
  uint64_t BranchesDispatched = 0;
  /// Branch operations that took.
  uint64_t BranchesTaken = 0;

  DynStats &operator+=(const DynStats &O) {
    OpsDispatched += O.OpsDispatched;
    OpsEffective += O.OpsEffective;
    BranchesDispatched += O.BranchesDispatched;
    BranchesTaken += O.BranchesTaken;
    return *this;
  }
};

/// Result of one interpreter run.
struct RunResult {
  enum class Status {
    Halted,    ///< reached Halt
    Trapped,   ///< reached Trap (a correctness canary fired)
    StepLimit, ///< exceeded the step budget
    Error,     ///< malformed execution (fell off the end, bad target, ...)
  };

  Status St = Status::Error;
  std::string ErrorMsg;
  uint64_t Steps = 0;
  DynStats Stats;
  /// Values of the function's observable registers at Halt.
  std::vector<int64_t> Observed;

  bool halted() const { return St == Status::Halted; }
};

/// Initial register bindings for a run.
struct RegBinding {
  Reg R;
  int64_t Value;
};

/// One recorded store (for trace-based debugging and tests).
struct StoreEvent {
  OpId Op;
  int64_t Addr;
  int64_t Value;
  bool operator==(const StoreEvent &O) const {
    return Addr == O.Addr && Value == O.Value;
  }
};

/// Opt-in instrumentation of one operation, keyed by OpId. cpr-lint's
/// witness replay (lint/Witness.h) plants watches on the operations a
/// finding talks about and checks the counters after the run: did the op
/// dispatch, did its guard ever hold, when did it first execute, what did
/// a register hold when control first arrived at it.
struct OpWatch {
  /// Operation to watch.
  OpId Op = InvalidOpId;
  /// Optional register sampled just before the op's first dispatch
  /// (invalid = no sampling). PR values sample as 0/1, FPR/BTR values as
  /// their integer casts.
  Reg SampleReg;

  // --- outputs, written by interpret() ---
  uint64_t Dispatched = 0;
  /// Dispatches whose guard held (a branch is "effective" when its guard
  /// holds, whether or not it takes).
  uint64_t Effective = 0;
  /// Takes, for Branch ops (guard and branch predicate both held).
  uint64_t Taken = 0;
  /// 1-based step number of the first effective dispatch; 0 = never.
  uint64_t FirstEffectiveStep = 0;
  bool Sampled = false;
  int64_t FirstValue = 0;
};

/// The interpreter's step cap unless a caller budgets its own; the
/// equivalence oracle (interp/Profiler.h) always runs under it.
inline constexpr uint64_t DefaultMaxSteps = 100'000'000;

/// Interpreter options.
struct InterpOptions {
  uint64_t MaxSteps = DefaultMaxSteps;
  /// When set, branch/block frequencies are accumulated here.
  ProfileData *Profile = nullptr;
  /// When set, every executed store appends an event here.
  std::vector<StoreEvent> *StoreTrace = nullptr;
  /// When set, every dispatched branch appends a BranchEvent here and the
  /// terminating halt/trap is marked (the input of sim/TraceSimulator.h).
  BranchTrace *Trace = nullptr;
  /// When set, each watch's counters are updated as its op dispatches.
  std::vector<OpWatch> *Watches = nullptr;
};

/// Executes \p F starting at its entry block against \p Mem.
/// \p InitRegs seeds GPR values (e.g. array base addresses).
RunResult interpret(const Function &F, Memory &Mem,
                    const std::vector<RegBinding> &InitRegs,
                    const InterpOptions &Opts = InterpOptions());

} // namespace cpr

#endif // INTERP_INTERPRETER_H
