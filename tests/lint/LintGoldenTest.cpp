//===- tests/lint/LintGoldenTest.cpp - Fixture-driven check goldens -------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Each hand-written fixture under tests/lint/fixtures/ plants exactly one
// violation of one invariant; the matching check must report exactly that
// finding -- stable DiagCode, check name, block, and operation location --
// and every other check must stay silent. The clean fixture is the
// negative control.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"
#include "lint/Witness.h"

#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "support/JSON.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace cpr;

namespace {

struct Fixture {
  std::string Text;
  std::unique_ptr<Function> Func;
  LintResult Result;
};

Fixture lintFixture(const std::string &Name) {
  Fixture Fx;
  std::string Path = std::string(CPR_LINT_FIXTURE_DIR) + "/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::stringstream Buf;
  Buf << In.rdbuf();
  Fx.Text = Buf.str();

  ParseResult PR = parseFunction(Fx.Text);
  EXPECT_NE(PR.Func, nullptr) << Name << ": " << PR.Error;
  if (!PR.Func)
    return Fx;
  // Every fixture is structurally valid IR: the violations live strictly
  // at the semantic level the lint checks (not the verifier) own.
  EXPECT_TRUE(verifyFunction(*PR.Func).empty()) << Name;

  LintOptions Opts;
  Status S = parseInjectedSchedules(Fx.Text, Opts.Schedules);
  EXPECT_TRUE(S.ok()) << S.diagnostic().str();
  Fx.Func = std::move(PR.Func);
  Fx.Result = LintDriver(Opts).run(*Fx.Func);
  return Fx;
}

/// Asserts the fixture produced exactly one finding with the given
/// signature and that the anchor op is a real operation of the block.
void expectSingleFinding(const Fixture &Fx, DiagCode Code,
                         const std::string &Check,
                         const std::string &BlockName, int OpIndex,
                         DiagSeverity Sev = DiagSeverity::Error) {
  ASSERT_EQ(Fx.Result.Findings.size(), 1u);
  const LintFinding &F = Fx.Result.Findings[0];
  EXPECT_EQ(F.Code, Code);
  EXPECT_EQ(F.Check, Check);
  EXPECT_EQ(F.Block, BlockName);
  EXPECT_EQ(F.OpIndex, OpIndex);
  EXPECT_EQ(F.Severity, Sev);
  ASSERT_NE(Fx.Func, nullptr);
  const Block *B = nullptr;
  for (size_t L = 0; L < Fx.Func->numBlocks(); ++L)
    if (Fx.Func->block(L).getName() == BlockName)
      B = &Fx.Func->block(L);
  ASSERT_NE(B, nullptr) << "finding names unknown block " << BlockName;
  ASSERT_GE(OpIndex, 0);
  ASSERT_LT(static_cast<size_t>(OpIndex), B->size());
  EXPECT_EQ(F.Op, B->ops()[OpIndex].getId())
      << "op id and op index disagree";
}

TEST(LintGolden, CleanControlHasNoFindings) {
  Fixture Fx = lintFixture("clean_cpr.ir");
  EXPECT_TRUE(Fx.Result.clean())
      << Fx.Result.Findings[0].str();
  EXPECT_EQ(Fx.Result.ChecksRun.size(), 9u);
}

TEST(LintGolden, BadFRPIsExactlyOneFRPConsistencyError) {
  Fixture Fx = lintFixture("bad_frp.ir");
  // Anchored at the bypass branch of the on-trace block.
  expectSingleFinding(Fx, DiagCode::LintFRP, "frp-consistency", "Body", 7);
  EXPECT_NE(Fx.Result.Findings[0].Message.find("bypass predicate"),
            std::string::npos);
}

TEST(LintGolden, UseBeforeDefUnderDisjointPredicate) {
  Fixture Fx = lintFixture("use_before_def.ir");
  // Anchored at the read: cmpp (0), guarded mov (1), offending add (2).
  expectSingleFinding(Fx, DiagCode::LintUseBeforeDef, "use-before-def", "A",
                      2);
  EXPECT_NE(Fx.Result.Findings[0].Message.find("r3"), std::string::npos);
}

TEST(LintGolden, UnsafeSpeculativeClobber) {
  Fixture Fx = lintFixture("unsafe_speculation.ir");
  // Anchored at the unguarded mov inside the bypass window.
  expectSingleFinding(Fx, DiagCode::LintSpeculation, "speculation-safety",
                      "Body", 6);
  EXPECT_NE(Fx.Result.Findings[0].Message.find("r7"), std::string::npos);
}

TEST(LintGolden, MissingCompensationExit) {
  Fixture Fx = lintFixture("missing_compensation.ir");
  // Anchored at the compensation block's trailing trap -- the op an
  // off-trace execution with the lost exit actually reaches.
  expectSingleFinding(Fx, DiagCode::LintCompensation,
                      "compensation-completeness", "Body_cmp", 4);
}

TEST(LintGolden, OversubscribedIssueSlot) {
  Fixture Fx = lintFixture("oversubscribed_slot.ir");
  // Anchored at the third load of the pinned cycle 0 (two memory units).
  expectSingleFinding(Fx, DiagCode::LintSchedule, "schedule-legality", "A",
                      2);
  EXPECT_NE(Fx.Result.Findings[0].Message.find("memory"), std::string::npos);
}

TEST(LintGolden, UnrecognizableFRPIsAWarning) {
  Fixture Fx = lintFixture("warn_unrecognized_frp.ir");
  expectSingleFinding(Fx, DiagCode::LintFRP, "frp-consistency", "A", 2,
                      DiagSeverity::Warning);
  EXPECT_EQ(Fx.Result.errorCount(), 0u);
  EXPECT_TRUE(lintStatus(Fx.Result).ok());
  EXPECT_FALSE(lintStatus(Fx.Result, /*Werror=*/true).ok());
}

/// Replays the fixture's single finding through the interpreter and
/// asserts the witness confirms.
void expectConfirmedWitness(const Fixture &Fx) {
  ASSERT_EQ(Fx.Result.Findings.size(), 1u);
  const LintFinding &F = Fx.Result.Findings[0];
  ASSERT_NE(F.Witness, nullptr);
  ASSERT_TRUE(F.Witness->Solved) << F.Witness->UnsolvedWhy;
  WitnessConfirmation WC = confirmWitness(*Fx.Func, *F.Witness);
  EXPECT_TRUE(WC.Confirmed) << WC.Detail;
}

TEST(LintGolden, DeadBranchUnderUnsatisfiablePredicate) {
  Fixture Fx = lintFixture("dead_under_predicate.ir");
  // Anchored at the branch: p1 init (0), pbr (1), dead branch (2).
  expectSingleFinding(Fx, DiagCode::LintDeadUnderPred,
                      "dead-under-predicate", "A", 2,
                      DiagSeverity::Warning);
  expectConfirmedWitness(Fx);
}

TEST(LintGolden, UninitializedWholeRegionRead) {
  Fixture Fx = lintFixture("uninit_read.ir");
  // Anchored at the read in the entry block; r3's only definition sits
  // in a block that cannot reach it.
  expectSingleFinding(Fx, DiagCode::LintUninitRead, "uninit-read", "A", 0);
  EXPECT_NE(Fx.Result.Findings[0].Message.find("r3"), std::string::npos);
  expectConfirmedWitness(Fx);
}

TEST(LintGolden, RedundantCompensationRecompute) {
  Fixture Fx = lintFixture("redundant_compensation.ir");
  // Anchored at the compensation block's recomputing add.
  expectSingleFinding(Fx, DiagCode::LintRedundantComp,
                      "redundant-compensation", "Body_cmp", 0,
                      DiagSeverity::Warning);
  EXPECT_NE(Fx.Result.Findings[0].Message.find("r20"), std::string::npos);
  expectConfirmedWitness(Fx);
}

TEST(LintGolden, OversubscribedFetchWidth) {
  Fixture Fx = lintFixture("oversubscribed_fetch.ir");
  // Legal for the units and issue width, but the directive narrows the
  // fetch front end to two ops per cycle and cycle 0 issues three.
  expectSingleFinding(Fx, DiagCode::LintResourceOversub,
                      "resource-oversubscription", "A", 2);
  expectConfirmedWitness(Fx);
}

/// With the prefix-chain input solver, findings anchored past a
/// straight-line entry block still get replayable witnesses.
TEST(LintGolden, WitnessesConfirmBehindStraightLinePrefix) {
  for (const char *Name :
       {"bad_frp.ir", "unsafe_speculation.ir", "missing_compensation.ir"}) {
    Fixture Fx = lintFixture(Name);
    SCOPED_TRACE(Name);
    expectConfirmedWitness(Fx);
  }
}

/// The JSON report carries the same finding signature the text report
/// does (the --stats-json contract of docs/LINT.md).
TEST(LintGolden, JSONReportMatchesTextFindings) {
  Fixture Fx = lintFixture("bad_frp.ir");
  ASSERT_EQ(Fx.Result.Findings.size(), 1u);
  JSONValue V = lintResultToJSON("bad_frp", Fx.Result);
  const JSONValue *Findings = V.find("findings");
  ASSERT_NE(Findings, nullptr);
  ASSERT_EQ(Findings->items().size(), 1u);
  const JSONValue &F = Findings->items()[0];
  EXPECT_EQ(F.find("code")->getString(), "lint-frp");
  EXPECT_EQ(F.find("check")->getString(), "frp-consistency");
  EXPECT_EQ(F.find("block")->getString(), "Body");
  EXPECT_EQ(F.find("op_index")->getNumber(), 7.0);
  EXPECT_EQ(F.find("severity")->getString(), "error");
  EXPECT_EQ(V.find("counts")->find("error")->getNumber(), 1.0);
  // v2: every finding carries a witness object (solved or not).
  const JSONValue *W = F.find("witness");
  ASSERT_NE(W, nullptr);
  EXPECT_NE(W->find("solved"), nullptr);
}

} // namespace
