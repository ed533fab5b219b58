//===- fuzz/Differential.h - The fuzzer's judges ----------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer's judges: run one PipelineRun session per (program x
/// CPROptions variant), judge the treated code under one of three
/// oracles, and classify the outcome:
///
///  - Pass            the oracle accepts the treated code and every
///                    downstream stage (the estimate on each machine)
///                    completed;
///  - Mismatch        the interpreter oracle found a diverging artifact
///                    (a miscompile -- the prize), or, under
///                    cross-validation, the two oracles disagree;
///  - VerifierReject  the transform produced structurally invalid IR;
///  - LintReject      the transform produced verifier-clean IR that the
///                    static checks of src/lint/ prove violates a CPR
///                    invariant (the static oracle's prize -- caught
///                    without ever running the interpreter);
///  - Crash           a stage died through reportFatalError /
///                    CPR_UNREACHABLE (contained by the thread-local
///                    ScopedFatalErrorTrap, support/Error.h).
///
/// The transform and the oracles never read the machine, so one session
/// per variant serves every machine of the judge. judge() is const and
/// each call works on a private clone, so a campaign fans cases out on
/// the ThreadPool; verdicts are pure functions of (program, variant) and
/// identical at any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef FUZZ_DIFFERENTIAL_H
#define FUZZ_DIFFERENTIAL_H

#include "interp/Profiler.h"
#include "lint/Lint.h"
#include "machine/MachineDesc.h"
#include "pipeline/CompilerPipeline.h"

#include <string>
#include <vector>

namespace cpr {

/// Outcome classification of one judged variant, ordered by rising
/// severity (see fuzzOutcomeSeverity).
enum class FuzzOutcome {
  Pass,
  VerifierReject,
  LintReject,
  Crash,
  Mismatch,
};

/// Name of \p O for reports ("pass", "mismatch", ...).
const char *fuzzOutcomeName(FuzzOutcome O);

/// Severity rank: Pass (0) < VerifierReject < LintReject < Crash <
/// Mismatch (4). A mismatch outranks a crash because silent wrong code is
/// the failure mode this subsystem exists to hunt; a lint reject outranks
/// a verifier reject because it is a proved semantic violation, not just
/// a malformed artifact.
int fuzzOutcomeSeverity(FuzzOutcome O);

/// One transformation configuration under test.
struct FuzzVariant {
  std::string Name;
  CPROptions CPR;
  unsigned UnrollFactor = 1;
};

/// The default variant sweep: paper-default heuristics, an aggressive
/// formation policy, each ablation knob, and an unrolled substrate.
std::vector<FuzzVariant> defaultFuzzVariants();

/// The oracle a judge classifies each (program, variant) with.
enum class FuzzOracle {
  /// Strict session; the interpreter compares baseline and treated code
  /// on the program's inputs.
  Differential,
  /// Fail-safe session under a synthetic biased profile; the cpr-lint
  /// checks judge the treated code differentially against the baseline.
  /// Never executes the program.
  StaticLint,
  /// Strict session judged by both oracles, the static side's witnesses
  /// replayed through the interpreter; a disagreement is the failure.
  CrossValidate,
};

/// How the two oracles of a cross-validating judge disagreed.
enum class CrossDisagreement {
  None,
  /// An error finding whose witness confirms on replay, while the runs
  /// agree: the single-input comparison never tried the violating inputs.
  ConfirmedButPass,
  /// The runs diverge and the checks find no error: a static-oracle gap.
  MismatchUnproved,
};

/// One judge's verdict on one (program, variant).
struct FuzzVerdict {
  FuzzOutcome Outcome = FuzzOutcome::Pass;
  /// Differential mismatches: which artifact diverged first.
  EquivResult::Divergence Divergence = EquivResult::Divergence::None;
  /// Cross-validation mismatches: which way the oracles disagreed.
  CrossDisagreement Cross = CrossDisagreement::None;
  /// Static and cross-validating judges: the baseline already carried an
  /// error finding, so the variant was left unjudged (Outcome is Pass).
  bool BaselineDirty = false;
  /// "[variant] what failed" (empty for Pass).
  std::string Detail;

  /// Whether \p O fails the same way: outcome, divergence and
  /// disagreement, the signature reduction preserves.
  bool sameFailure(const FuzzVerdict &O) const {
    return Outcome == O.Outcome && Divergence == O.Divergence &&
           Cross == O.Cross;
  }
};

/// The verdict of one program over a judge's variant sweep.
struct CaseVerdict {
  /// The most severe verdict; the first variant's among equals.
  FuzzVerdict Worst;
  /// Index of the variant Worst belongs to (0 when every variant passed).
  size_t Variant = 0;
  /// Some variant's baseline linted dirty.
  bool BaselineDirty = false;
};

/// Judges programs under one oracle over a fixed variant sweep.
class FuzzJudge {
public:
  /// Empty \p Variants / \p Machines select the defaults
  /// (defaultFuzzVariants(), {medium, wide}). The sessions estimate every
  /// machine, and the static checks schedule for each of them.
  explicit FuzzJudge(FuzzOracle Oracle = FuzzOracle::Differential,
                     std::vector<FuzzVariant> Variants = {},
                     std::vector<MachineDesc> Machines = {});

  const std::vector<FuzzVariant> &variants() const { return Variants; }

  /// Judges variant \p VariantIdx of \p P in one session on a private
  /// clone. Thread-safe; never lets a FatalError escape.
  FuzzVerdict judge(const KernelProgram &P, size_t VariantIdx) const;

  /// Judges every variant (serially) and keeps the worst verdict.
  CaseVerdict judgeCase(const KernelProgram &P) const;

private:
  FuzzOracle Oracle;
  std::vector<FuzzVariant> Variants;
  std::vector<MachineDesc> Machines;
  LintDriver Linter;
};

} // namespace cpr

#endif // FUZZ_DIFFERENTIAL_H
