//===- fuzz/Fuzzer.h - Fuzzing campaigns ------------------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign layer tying the subsystem together: draw cases (fresh
/// generations and corpus mutations), fan them out on the ThreadPool
/// through one judge (fuzz/Differential.h) -- the differential, static
/// or cross-validating oracle -- then serially reduce each failure under
/// the same judge and write a minimal `.ir` reproducer.
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
  /// The judge of every (program, variant).
  FuzzOracle Oracle = FuzzOracle::Differential;
  /// The variant sweep and the machines each session estimates (empty
  /// selects the defaults, see FuzzJudge).
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
  /// The variant the failure was judged (and reduced) under.
  std::string VariantName;
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
  /// Static and cross-validating campaigns: cases where some variant's
  /// *baseline* already carried a lint finding, left unjudged there.
  unsigned LintBaselineDirty = 0;
  /// Cross-validating campaigns: the mismatches by the way the oracles
  /// disagreed (CrossDisagreement).
  unsigned CrossConfirmedButPass = 0;
  unsigned CrossMismatchUnproved = 0;
  /// Failures in case order (deterministic).
  std::vector<FuzzFailure> Failures;

  bool clean() const { return Failures.empty(); }
  /// One-line deterministic summary ("cases=... pass=... mismatch=...";
  /// lint-reject and baseline-dirty tallies appear when nonzero).
  std::string summary() const;
};

/// Runs one campaign under Opts.Oracle. Deterministic at any Opts.Threads
/// (see file comment). InjectDefect arms the process-global fault
/// registry and must not be used concurrently with other campaigns.
FuzzCampaignResult runFuzzCampaign(const FuzzCampaignOptions &Opts);

} // namespace cpr

#endif // FUZZ_FUZZER_H
