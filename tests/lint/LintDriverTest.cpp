//===- tests/lint/LintDriverTest.cpp - Lint framework units ---------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Framework-level behavior of src/lint/: the check table and check
// selection, finding rendering (text, Diagnostic, cpr-lint-v2 JSON),
// exit-status policy (lintStatus / --werror), and the sidecar schedule
// directive parser. The checks themselves are exercised against the
// fixture corpus in LintGoldenTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "support/JSON.h"

#include <gtest/gtest.h>

#include <climits>

using namespace cpr;

namespace {

const char *const CheckNames[] = {
    "frp-consistency",       "use-before-def",
    "speculation-safety",    "compensation-completeness",
    "schedule-legality",     "dead-under-predicate",
    "redundant-compensation", "uninit-read",
    "resource-oversubscription"};
constexpr size_t NumChecks = sizeof(CheckNames) / sizeof(CheckNames[0]);

TEST(LintDriverTest, BuiltinPassesInCanonicalOrder) {
  ASSERT_EQ(lintChecks().size(), NumChecks);
  for (size_t I = 0; I < NumChecks; ++I) {
    EXPECT_STREQ(lintChecks()[I].Name, CheckNames[I]);
    EXPECT_NE(std::string(lintChecks()[I].Description), "");
  }
}

TEST(LintDriverTest, OnlyChecksFilterRestrictsChecksRun) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  r1 = add(r2, 1)
  halt
}
)");
  LintOptions Opts;
  Opts.OnlyChecks = {"use-before-def", "schedule-legality"};
  LintDriver D(Opts);
  LintResult R = D.run(*F);
  ASSERT_EQ(R.ChecksRun.size(), 2u);
  EXPECT_EQ(R.ChecksRun[0], "use-before-def");
  EXPECT_EQ(R.ChecksRun[1], "schedule-legality");
  EXPECT_TRUE(R.clean());
}

TEST(LintDriverTest, AllChecksRunByDefault) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  halt
}
)");
  LintResult R = LintDriver().run(*F);
  ASSERT_EQ(R.ChecksRun.size(), NumChecks);
  for (size_t I = 0; I < NumChecks; ++I)
    EXPECT_EQ(R.ChecksRun[I], CheckNames[I]);
}

// strcpy's cursor pattern: r1 is an environment input that the function
// also bumps later, so it has a definition in the function but none that
// reaches the entry read. Without the declared-inputs exemption this is
// exactly what uninit-read flags.
TEST(LintDriverTest, DeclaredInputsExemptUninitRead) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  r2 = add(r1, 1)
  r1 = add(r1, 4)
  halt
}
)");
  LintOptions Opts;
  Opts.OnlyChecks = {"uninit-read"};
  LintDriver D(Opts);

  // Both reads of r1 (the use and the bump's own operand) are flagged.
  LintResult Undeclared = D.run(*F);
  ASSERT_EQ(Undeclared.errorCount(), 2u);
  for (const LintFinding &Fd : Undeclared.Findings)
    EXPECT_EQ(Fd.Check, "uninit-read");

  std::vector<RegBinding> Inputs = {{Reg::gpr(1), 7}};
  EXPECT_TRUE(D.run(*F, nullptr, &Inputs).clean());
}

LintFinding sampleFinding(DiagSeverity Sev) {
  LintFinding F;
  F.Severity = Sev;
  F.Code = DiagCode::LintFRP;
  F.Check = "frp-consistency";
  F.Block = "Loop";
  F.Op = 12;
  F.OpIndex = 3;
  F.Message = "sample message";
  return F;
}

TEST(LintFindingTest, TextRendering) {
  EXPECT_EQ(sampleFinding(DiagSeverity::Error).str(),
            "error [lint-frp] @Loop op %12: sample message");
  LintFinding BlockLevel = sampleFinding(DiagSeverity::Warning);
  BlockLevel.Op = InvalidOpId;
  BlockLevel.OpIndex = -1;
  EXPECT_EQ(BlockLevel.str(), "warning [lint-frp] @Loop: sample message");
}

TEST(LintFindingTest, ToDiagnosticCarriesCodeAndSite) {
  Diagnostic D = sampleFinding(DiagSeverity::Error).toDiagnostic();
  EXPECT_EQ(D.Code, DiagCode::LintFRP);
  EXPECT_EQ(D.Severity, DiagSeverity::Error);
  EXPECT_EQ(D.Site, "lint.frp-consistency");
  EXPECT_NE(D.Message.find("sample message"), std::string::npos);
}

TEST(LintResultTest, SeverityCountsAndStatus) {
  LintResult R;
  R.Findings.push_back(sampleFinding(DiagSeverity::Warning));
  EXPECT_EQ(R.errorCount(), 0u);
  EXPECT_EQ(R.countAtLeast(DiagSeverity::Warning), 1u);
  EXPECT_TRUE(lintStatus(R).ok());
  Status W = lintStatus(R, /*Werror=*/true);
  ASSERT_FALSE(W.ok());
  EXPECT_EQ(W.diagnostic().Code, DiagCode::LintFRP);

  R.Findings.push_back(sampleFinding(DiagSeverity::Error));
  EXPECT_EQ(R.errorCount(), 1u);
  EXPECT_FALSE(lintStatus(R).ok());
}

TEST(LintResultTest, ReportFindingsIntoEngine) {
  LintResult R;
  R.Findings.push_back(sampleFinding(DiagSeverity::Warning));
  R.Findings.push_back(sampleFinding(DiagSeverity::Error));
  DiagnosticEngine Diags;
  reportLintFindings(R, Diags);
  EXPECT_EQ(Diags.count(DiagSeverity::Warning), 1u);
  EXPECT_EQ(Diags.errorCount(), 1u);
}

TEST(LintJSONTest, ResultEntryShape) {
  LintResult R;
  R.ChecksRun = {"frp-consistency"};
  R.Findings.push_back(sampleFinding(DiagSeverity::Error));
  JSONValue V = lintResultToJSON("kernel", R);
  ASSERT_TRUE(V.isObject());
  ASSERT_NE(V.find("function"), nullptr);
  EXPECT_EQ(V.find("function")->getString(), "kernel");
  ASSERT_NE(V.find("checks"), nullptr);
  ASSERT_EQ(V.find("checks")->items().size(), 1u);
  const JSONValue *Findings = V.find("findings");
  ASSERT_NE(Findings, nullptr);
  ASSERT_EQ(Findings->items().size(), 1u);
  const JSONValue &F = Findings->items()[0];
  EXPECT_EQ(F.find("code")->getString(), "lint-frp");
  EXPECT_EQ(F.find("severity")->getString(), "error");
  EXPECT_EQ(F.find("block")->getString(), "Loop");
  EXPECT_EQ(F.find("op")->getNumber(), 12.0);
  EXPECT_EQ(F.find("op_index")->getNumber(), 3.0);
  const JSONValue *Counts = V.find("counts");
  ASSERT_NE(Counts, nullptr);
  EXPECT_EQ(Counts->find("error")->getNumber(), 1.0);
  // The writer round-trips through the strict parser.
  JSONParseResult PR = parseJSON(writeJSON(V));
  EXPECT_TRUE(static_cast<bool>(PR)) << PR.Error;
}

TEST(LintScheduleDirectiveTest, ParsesWellFormedDirectives) {
  std::vector<InjectedSchedule> Out;
  Status S = parseInjectedSchedules(
      "; header comment\n"
      "; lint-schedule(medium) @A: 0 0 1 4\n"
      "func @f {\n"
      "; lint-schedule(wide) @Loop: 2 3\n",
      Out);
  ASSERT_TRUE(S.ok());
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].MachineName, "medium");
  EXPECT_EQ(Out[0].BlockName, "A");
  EXPECT_EQ(Out[0].Cycles, (std::vector<int>{0, 0, 1, 4}));
  EXPECT_EQ(Out[1].MachineName, "wide");
  EXPECT_EQ(Out[1].BlockName, "Loop");
}

TEST(LintScheduleDirectiveTest, RejectsMalformedDirectives) {
  std::vector<InjectedSchedule> Out;
  EXPECT_FALSE(
      parseInjectedSchedules("; lint-schedule(medium @A: 0\n", Out).ok());
  EXPECT_FALSE(
      parseInjectedSchedules("; lint-schedule(medium) @A: 0 x 1\n", Out)
          .ok());
}

TEST(LintScheduleDirectiveTest, PinnedScheduleValidatesAgainstModel) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  r3 = load.m1(r1)
  r4 = add(r3, 1)
  halt
}
)");
  // Legal pinned schedule: the add waits for the load's latency.
  LintOptions Good;
  Good.Schedules.push_back({"A", "medium", {0, 4, 8}});
  EXPECT_TRUE(LintDriver(Good).run(*F).clean());

  // Ignoring the load->add flow dependence is a schedule-legality error.
  LintOptions Bad;
  Bad.Schedules.push_back({"A", "medium", {0, 0, 8}});
  LintResult R = LintDriver(Bad).run(*F);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].Code, DiagCode::LintSchedule);

  // Naming an unknown machine or pinning the wrong op count is itself a
  // finding rather than a silent skip.
  LintOptions Unknown;
  Unknown.Schedules.push_back({"A", "no-such-machine", {0, 1, 2}});
  EXPECT_EQ(LintDriver(Unknown).run(*F).errorCount(), 1u);
  LintOptions Short;
  Short.Schedules.push_back({"A", "medium", {0, 1}});
  EXPECT_EQ(LintDriver(Short).run(*F).errorCount(), 1u);

  // So is a cycle before the block starts, or one whose completion
  // (cycle + latency) overflows int; a late but representable cycle is
  // legal and validates without walking the idle cycles before it.
  LintOptions Negative;
  Negative.Schedules.push_back({"A", "medium", {-1, 4, 8}});
  EXPECT_EQ(LintDriver(Negative).run(*F).errorCount(), 1u);
  LintOptions Overflow;
  Overflow.Schedules.push_back({"A", "medium", {0, 4, INT_MAX}});
  EXPECT_EQ(LintDriver(Overflow).run(*F).errorCount(), 1u);
  LintOptions Late;
  Late.Schedules.push_back({"A", "medium", {0, 4, 2000000000}});
  EXPECT_TRUE(LintDriver(Late).run(*F).clean());
}

} // namespace
