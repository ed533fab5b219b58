//===- fuzz/Fuzzer.h - Differential fuzzing campaigns -----------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign layer tying the subsystem together: draw cases (fresh
/// generations and corpus mutations), fan them out on the ThreadPool
/// through the differential oracle, then serially reduce each failure
/// and write a minimal `.ir` reproducer.
///
/// Determinism contract: each case's program is a pure function of
/// (campaign seed, case index), results land in preallocated per-case
/// slots, and reduction runs serially in case order -- so the outcome
/// classification, failure list, reproducers, and stats counters are
/// identical at any --threads setting.
///
//===----------------------------------------------------------------------===//

#ifndef FUZZ_FUZZER_H
#define FUZZ_FUZZER_H

#include "fuzz/Differential.h"
#include "fuzz/Generator.h"
#include "fuzz/Reducer.h"

#include <iosfwd>

namespace cpr {

class StatsRegistry;

struct FuzzCampaignOptions {
  uint64_t Seed = 1;
  unsigned Runs = 100;
  /// Worker threads; 1 = serial, 0 = one per hardware thread.
  unsigned Threads = 1;
  /// With a non-empty corpus: fraction of cases that mutate a corpus
  /// entry instead of generating a fresh program.
  double MutateFrac = 0.5;
  GeneratorConfig Generator;
  /// Variant/machine grid (empty selects the defaults).
  std::vector<FuzzVariant> Variants;
  std::vector<MachineDesc> Machines;
  /// Reduce failures and write reproducers into OutDir.
  bool Reduce = false;
  ReducerOptions Reducer;
  /// Directory of seed `.ir` programs (read-only; may be empty/missing).
  std::string CorpusDir;
  /// Directory reproducers are written to (must exist; empty disables
  /// writing).
  std::string OutDir;
  /// Plant the hidden compensation-skip miscompile (self-test of the
  /// oracle and reducer): arms fault site "cpr.restructure.compensation"
  /// on every hit (support/FaultInjector.h).
  bool InjectDefect = false;
  /// Optional counter sink (campaign tallies, reduction sizes).
  StatsRegistry *Stats = nullptr;
  /// Optional progress stream (one line per failure).
  std::ostream *Log = nullptr;
};

/// One failing case, post-reduction.
struct FuzzFailure {
  size_t CaseIndex = 0;
  uint64_t CaseSeed = 0;
  FuzzOutcome Outcome = FuzzOutcome::Pass;
  EquivResult::Divergence Divergence = EquivResult::Divergence::None;
  /// Grid cell the failure was reduced against.
  std::string VariantName, MachineName;
  std::string Detail;
  /// Serialized reduced reproducer (corpus format).
  std::string ReducedText;
  size_t OriginalOps = 0, ReducedOps = 0;
  /// Path the reproducer was written to ("" when OutDir is empty or
  /// reduction is off).
  std::string ReproducerPath;
};

struct FuzzCampaignResult {
  unsigned Cases = 0;
  unsigned Passes = 0;
  unsigned Mismatches = 0;
  unsigned VerifierRejects = 0;
  unsigned LintRejects = 0;
  unsigned Crashes = 0;
  /// Static-oracle campaigns: cases whose *baseline* already carried a
  /// lint finding, excluded from the differential comparison.
  unsigned LintBaselineDirty = 0;
  /// Cross-validation campaigns: discrepancy tallies by direction (see
  /// runCrossValidationCampaign).
  unsigned CrossConfirmedButPass = 0;
  unsigned CrossMismatchUnproved = 0;
  /// Failures in case order (deterministic).
  std::vector<FuzzFailure> Failures;

  bool clean() const { return Failures.empty(); }
  /// One-line deterministic summary ("cases=... pass=... mismatch=...";
  /// lint-reject and baseline-dirty tallies appear when nonzero).
  std::string summary() const;
};

/// Runs one campaign. Deterministic at any Opts.Threads (see file
/// comment). InjectDefect arms the process-global fault registry and must
/// not be used concurrently with other campaigns.
FuzzCampaignResult runFuzzCampaign(const FuzzCampaignOptions &Opts);

/// The static-oracle campaign (docs/LINT.md): same case construction as
/// runFuzzCampaign, but the oracle never executes a program. Each case is
/// given a synthetic heavily-biased profile (every branch reached often
/// and rarely taken, the shape CPR forms blocks for), transformed under a
/// fail-safe CPRContext, and judged *differentially* by the cpr-lint
/// checks: a case whose baseline already carries an error finding is
/// excluded (LintBaselineDirty), and a finding that is new in the treated
/// function is a LintReject failure. Reduction is unsupported here
/// (failures keep their full program text). Deterministic at any
/// Opts.Threads.
FuzzCampaignResult runStaticLintCampaign(const FuzzCampaignOptions &Opts);

/// The cross-validation campaign (docs/FUZZING.md): every case is judged
/// by BOTH oracles over the same treated function -- the differential
/// interpreter comparison, and the witness-producing static checks with
/// each witness replayed through the interpreter -- and the verdicts are
/// required to agree. A disagreement is a *harness* bug, not (only) a
/// compiler bug:
///  - differential pass + an error finding whose witness CONFIRMS on
///    replay: the replay exhibited the proved violation on inputs the
///    single-input equivalence comparison never tried
///    ("confirmed-witness-differential-pass");
///  - differential mismatch + no error finding: a miscompile the static
///    oracle failed to prove -- in this harness the transform is the only
///    miscompile source and its invariant breaks are what the checks
///    prove ("differential-mismatch-no-finding").
/// Discrepancies are classified in Fail.Detail, tallied in
/// CrossConfirmedButPass / CrossMismatchUnproved, and -- with Opts.Reduce
/// -- reduced with the discrepancy itself as the oracle (reduceCaseWith).
/// Deterministic at any Opts.Threads.
FuzzCampaignResult runCrossValidationCampaign(const FuzzCampaignOptions &Opts);

} // namespace cpr

#endif // FUZZ_FUZZER_H
