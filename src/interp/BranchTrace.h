//===- interp/BranchTrace.h - Dynamic branch event traces -------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic branch stream of one interpreter run: every dispatched
/// branch operation, in execution order, with its taken outcome, plus a
/// terminal marker naming the halt/trap that ended the run. The trace is
/// what separates the paper's static performance methodology from a
/// dynamic one: replayed through a branch predictor (sim/BranchPredictor.h)
/// it exposes exactly the mispredictions the paper's frequency-weighted
/// formula ignores.
///
/// The trace keeps every event: cycle simulation replays the run from its
/// first branch.
///
/// A compact line-oriented serialization lives alongside, in the format
/// family of analysis/ProfileIO.h. Consecutive identical (branch, outcome)
/// events are run-length encoded, which collapses the single-branch-loop
/// traces unrolled kernels produce:
///
///   btrace v1
///   ev <opId> <t|n> <count>   # <count> consecutive identical events
///   term <opId>               # the halt/trap that ended the run
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_BRANCHTRACE_H
#define INTERP_BRANCHTRACE_H

#include "ir/Operation.h"
#include "support/Diagnostic.h"

#include <cassert>
#include <string>
#include <vector>

namespace cpr {

/// One dispatched branch: which operation, and whether it took. Nullified
/// branches (false guard) are recorded as not taken, mirroring the
/// profiler's reached/taken accounting.
struct BranchEvent {
  OpId Op = InvalidOpId;
  bool Taken = false;

  bool operator==(const BranchEvent &O) const {
    return Op == O.Op && Taken == O.Taken;
  }
};

/// Execution-ordered branch events.
class BranchTrace {
public:
  /// Appends one event.
  void record(OpId Op, bool Taken) { Buf.push_back(BranchEvent{Op, Taken}); }

  /// Notes the halt/trap operation that ended the run.
  void markTerminal(OpId Op) { Terminal = Op; }
  bool hasTerminal() const { return Terminal != InvalidOpId; }
  OpId terminalOp() const { return Terminal; }

  /// Number of events.
  size_t size() const { return Buf.size(); }
  bool empty() const { return Buf.empty(); }

  /// The \p I-th event, in execution order.
  const BranchEvent &event(size_t I) const {
    assert(I < Buf.size() && "event index out of range");
    return Buf[I];
  }

  void clear() {
    Buf.clear();
    Terminal = InvalidOpId;
  }

private:
  OpId Terminal = InvalidOpId;
  std::vector<BranchEvent> Buf;
};

/// Serializes \p T in the run-length-encoded text format above.
std::string serializeBranchTrace(const BranchTrace &T);

/// Upper bound on one "ev" record's run length. Legitimate traces are
/// produced by budgeted interpreter runs and stay far below this; a
/// larger count is malformed input that would otherwise materialize an
/// attacker-chosen number of events (the parser expands RLE runs).
inline constexpr uint64_t MaxTraceRunLength = uint64_t(1) << 30;

/// Parses a trace serialized by serializeBranchTrace, rejecting
/// malformed input -- bad or unknown records, trailing tokens, operation
/// ids wider than OpId, run lengths above MaxTraceRunLength, records in an
/// order the serializer never emits (events after term, a duplicate term)
/// -- with a recoverable ParseError diagnostic (Line set to the offending
/// 1-based line).
Expected<BranchTrace> tryParseBranchTrace(const std::string &Text);

} // namespace cpr

#endif // INTERP_BRANCHTRACE_H
