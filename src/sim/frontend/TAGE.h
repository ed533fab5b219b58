//===- sim/frontend/TAGE.h - TAGE-SC-L branch predictor ---------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TAGE-SC-L-class conditional branch predictor (Seznec's CBP family)
/// behind the repository's BranchPredictor interface:
///
///  - a bimodal base table of 2-bit counters;
///  - N tagged tables indexed by branch id hashed with geometrically
///    increasing global-history lengths, each entry carrying a partial
///    tag, a 3-bit signed prediction counter, and a 2-bit usefulness
///    counter; the longest-history tag match provides the prediction,
///    the next match (or bimodal) provides the alternate. Indices and
///    tags fold the history into a few bits through folded registers --
///    four per tagged table, one per corrector table -- each updated in
///    O(1) per branch (rotate, XOR the new bit in, XOR the bit that left
///    the window out) over a history ring, never rebuilt bit by bit;
///  - a use-alt-on-newly-allocated counter that prefers the alternate
///    prediction while a freshly allocated entry is still untrained;
///  - a loop predictor that learns constant trip counts and overrides
///    the TAGE prediction once confident;
///  - a statistical corrector (GEHL-style adder tree of signed counters
///    over several short history lengths) that reverses statistically
///    biased low-confidence TAGE predictions.
///
/// The reference implementations allocate tagged entries with a random
/// table choice; this one is strictly deterministic -- allocation scans
/// for the first not-useful entry above the provider -- because every
/// simulator stage must be byte-identical at any --threads setting.
/// There is no randomness, no wall clock, and no global state: two
/// instances fed the same branch stream stay bit-identical.
///
/// Sizing comes from PredictorConfig's Tage* knobs (BranchPredictor.h);
/// the defaults are scaled for the repository's OpId-keyed kernel traces
/// rather than a 64-kilobyte hardware budget.
///
//===----------------------------------------------------------------------===//

#ifndef SIM_FRONTEND_TAGE_H
#define SIM_FRONTEND_TAGE_H

#include "sim/BranchPredictor.h"

namespace cpr {

/// Builds the deterministic TAGE-SC-L predictor described above, sized by
/// \p C's Tage* knobs. Equivalent to
/// makePredictor(PredictorKind::TageScL, C).
std::unique_ptr<BranchPredictor>
makeTageScLPredictor(const PredictorConfig &C = PredictorConfig());

/// The geometric history-length series the tagged tables use: \p Tables
/// lengths from \p MinHist to \p MaxHist inclusive. Exposed so tests can
/// pin the table geometry.
std::vector<unsigned> tageHistoryLengths(unsigned Tables, unsigned MinHist,
                                         unsigned MaxHist);

} // namespace cpr

#endif // SIM_FRONTEND_TAGE_H
