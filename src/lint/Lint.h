//===- lint/Lint.h - Static semantic checks for CPR IR ----------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cpr-lint: nine static checks that prove the paper's structural
/// correctness invariants (Sections 4-7) on concrete IR, pre- and
/// post-transformation, without executing it (docs/LINT.md). Where the
/// interpreter-based equivalence oracle checks one input, these checks use
/// PQS/BDD predicate reasoning to cover *all* inputs of the properties
/// they encode:
///
///  - frp-consistency          the bypass branch's fully-resolved predicate
///                             is implied by the OR of the branch conditions
///                             the compensation block re-executes, and the
///                             on-/off-trace FRPs are disjoint and exhaust
///                             the root predicate (paper Section 4);
///  - use-before-def           a register read under predicate p has a
///                             definition on every path where p can be true
///                             (predicate-aware dataflow, [JS96]);
///  - speculation-safety       promoted (guard-weakened) operations are
///                             side-effect free and do not clobber values
///                             the bypass path still needs (Section 6);
///  - compensation-completeness every exit collapsed into the bypass is
///                             re-established off-trace, and every register
///                             an off-trace exit needs is defined on the
///                             off-trace path (Section 5);
///  - schedule-legality        emitted schedules respect the dependence
///                             latencies and per-unit resource limits of
///                             the machine model (Section 7);
///  - dead-under-predicate     an operation's guard (or a branch's taken
///                             condition) is provably unsatisfiable;
///  - redundant-compensation   a compensation block recomputes a value the
///                             on-trace path already produced unclobbered;
///  - uninit-read              a register is read before any definition in
///                             the whole function can reach it;
///  - resource-oversubscription a schedule issues more operations in one
///                             cycle than the machine fetches.
///
/// Findings carry a stable DiagCode, severity, operation location, and a
/// *witness* (lint/Witness.h): a satisfying assignment of the violated
/// property from the BDD plus concrete replay inputs the interpreter can
/// confirm (`cpr-lint --confirm-witnesses`). Results render both as text
/// and as `cpr-lint-v2` JSON. The driver is wired into
/// three layers: the standalone cpr-lint tool, the PipelineOptions::Lint
/// stage of PipelineRun (post-transform findings on a fail-safe region
/// trigger RegionTransaction rollback), and cpr-fuzz's static-oracle mode.
///
/// Conservatism contract: a check reports a finding only when the BDD
/// proof of the violated property is exact; on node-budget exhaustion
/// (BDD::Invalid) the check stays silent rather than guessing. Lint
/// findings are therefore high-confidence, but silence is not a proof.
///
/// The checks live in lint/Checks.cpp, one function each, listed in one
/// table (lintChecks()) that the driver, `cpr-lint --list-checks` and
/// `--checks=` all read.
///
/// Thread-safety: LintDriver is immutable after construction and may be
/// shared across threads; run() builds all per-function analyses locally.
///
//===----------------------------------------------------------------------===//

#ifndef LINT_LINT_H
#define LINT_LINT_H

#include "ir/Function.h"
#include "machine/MachineDesc.h"
#include "support/Diagnostic.h"
#include "support/JSON.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace cpr {

struct FunctionAnalyses;
class LintContext;
struct LintWitness;
struct RegBinding;

/// One lint finding: a violated invariant at a program location.
struct LintFinding {
  DiagSeverity Severity = DiagSeverity::Error;
  /// Stable machine-checkable code (one of the DiagCode::Lint* values).
  DiagCode Code = DiagCode::None;
  /// Name of the check that produced it ("frp-consistency", ...).
  std::string Check;
  /// Name of the block the finding is in.
  std::string Block;
  /// Id of the anchoring operation; InvalidOpId for block-level findings.
  OpId Op = InvalidOpId;
  /// Index of the anchoring operation in its block; -1 for block-level.
  int OpIndex = -1;
  std::string Message;
  /// The finding's witness (lint/Witness.h): a satisfying assignment of
  /// the violated property plus concrete replay inputs. Shared so copies
  /// of a finding stay cheap. Every built-in check attaches one; a null
  /// witness renders as JSON null, which the v2 schema allows.
  std::shared_ptr<LintWitness> Witness;

  /// "error [lint-frp] @Loop op %12: <message>".
  std::string str() const;
  /// The finding as a reportable Diagnostic (Site = "lint.<check>").
  Diagnostic toDiagnostic() const;
};

/// An externally supplied (pinned) schedule to validate instead of the
/// list scheduler's own output, e.g. parsed from a `; lint-schedule`
/// sidecar directive in a fixture file.
struct InjectedSchedule {
  std::string BlockName;
  std::string MachineName;
  std::vector<int> Cycles; // one issue cycle per operation, in block order
  /// Fetch-width override from a `fetch=N` directive attribute; 0 keeps
  /// the machine model's own fetch width. Resource-oversubscription
  /// validates total issue per cycle against this.
  int FetchWidth = 0;
};

/// Options shared by all checks of one driver.
struct LintOptions {
  /// Machine models schedule-legality validates against.
  std::vector<MachineDesc> Machines = {MachineDesc::medium()};
  /// When non-empty, only checks whose name appears here run.
  std::vector<std::string> OnlyChecks;
  /// Pinned schedules to validate instead of scheduling from scratch.
  std::vector<InjectedSchedule> Schedules;
};

/// Result of linting one function.
struct LintResult {
  std::vector<LintFinding> Findings;
  /// Names of the checks that ran, in order.
  std::vector<std::string> ChecksRun;

  bool clean() const { return Findings.empty(); }
  unsigned countAtLeast(DiagSeverity S) const;
  unsigned errorCount() const { return countAtLeast(DiagSeverity::Error); }
};

/// One built-in check: a row of the table the driver walks.
struct LintCheck {
  /// Stable check name ("frp-consistency", ...).
  const char *Name;
  /// One-line description for --list-checks and docs.
  const char *Description;
  /// Appends the check's findings for the context's function.
  void (*Run)(LintContext &Ctx, std::vector<LintFinding> &Out);
};

/// The built-in checks, in canonical order.
std::span<const LintCheck> lintChecks();

/// Runs the built-in checks (those named in LintOptions::OnlyChecks, when
/// it is non-empty) over functions.
class LintDriver {
public:
  explicit LintDriver(LintOptions Opts = LintOptions())
      : Opts(std::move(Opts)) {}

  /// Runs every enabled check over \p F. When \p Shared is non-null its
  /// pre-solved analyses, and its dependence graphs where they fit a
  /// machine, are used instead of rebuilding them. \p Inputs optionally
  /// declares the environment-initialized registers the function starts
  /// with (the uninit-read exemption of docs/LINT.md).
  LintResult run(const Function &F, FunctionAnalyses *Shared = nullptr,
                 const std::vector<RegBinding> *Inputs = nullptr) const;

private:
  LintOptions Opts;
};

/// Reports every finding of \p R into \p Diags.
void reportLintFindings(const LintResult &R, DiagnosticEngine &Diags);

/// Renders \p R as one per-function entry of the `cpr-lint-v2` report
/// (docs/LINT.md): {"function", "checks", "findings", "counts"}, each
/// finding carrying a "witness" object (null for a finding without one).
/// Tools wrap entries in the {"schema": "cpr-lint-v2", "functions": [...]}
/// envelope.
JSONValue lintResultToJSON(const std::string &FunctionName,
                           const LintResult &R);

/// Success when no finding reaches error severity (warning severity with
/// \p Werror). The diagnostic carries the first offending finding.
Status lintStatus(const LintResult &R, bool Werror = false);

/// Parses `; lint-schedule(<machine>[,fetch=<N>]) @<block>: <c0> <c1> ...`
/// sidecar directives from raw fixture text (the IR tokenizer skips them
/// as comments). Returns an error Status on a malformed directive.
Status parseInjectedSchedules(const std::string &Text,
                              std::vector<InjectedSchedule> &Out);

} // namespace cpr

#endif // LINT_LINT_H
