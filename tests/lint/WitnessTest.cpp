//===- tests/lint/WitnessTest.cpp - Witness solve/replay bar --------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The cpr-lint v2 witness contract (docs/LINT.md): on the golden fixture
// corpus every finding's witness solves to concrete inputs and replays to
// confirmation -- including findings anchored past a straight-line entry
// prefix -- and the planted compensation-skip miscompile produces a
// confirmed trap witness through the real pipeline. Unsolvable witnesses
// must say why instead of guessing.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"
#include "lint/Witness.h"

#include "fuzz/Generator.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "pipeline/PipelineRun.h"
#include "support/FaultInjector.h"
#include "support/JSON.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace cpr;

namespace {

LintResult lintFile(const std::string &Name, std::unique_ptr<Function> &F) {
  std::string Path = std::string(CPR_LINT_FIXTURE_DIR) + "/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::stringstream Buf;
  Buf << In.rdbuf();

  ParseResult PR = parseFunction(Buf.str());
  EXPECT_NE(PR.Func, nullptr) << Name << ": " << PR.Error;
  LintOptions Opts;
  EXPECT_TRUE(parseInjectedSchedules(Buf.str(), Opts.Schedules).ok());
  F = std::move(PR.Func);
  return LintDriver(Opts).run(*F);
}

/// The corpus-wide bar: every finding of every fixture carries a solved,
/// replay-confirmed witness. No fixture is exempt.
TEST(WitnessTest, EveryFixtureFindingConfirms) {
  const char *Fixtures[] = {
      "clean_cpr.ir",          "bad_frp.ir",
      "use_before_def.ir",     "unsafe_speculation.ir",
      "missing_compensation.ir", "oversubscribed_slot.ir",
      "warn_unrecognized_frp.ir", "dead_under_predicate.ir",
      "uninit_read.ir",        "redundant_compensation.ir",
      "oversubscribed_fetch.ir"};
  unsigned Findings = 0, Confirmed = 0;
  for (const char *Name : Fixtures) {
    SCOPED_TRACE(Name);
    std::unique_ptr<Function> F;
    LintResult R = lintFile(Name, F);
    ASSERT_NE(F, nullptr);
    for (const LintFinding &Fd : R.Findings) {
      ++Findings;
      ASSERT_NE(Fd.Witness, nullptr) << Fd.str();
      ASSERT_TRUE(Fd.Witness->Solved)
          << Fd.str() << ": " << Fd.Witness->UnsolvedWhy;
      WitnessConfirmation WC = confirmWitness(*F, *Fd.Witness);
      EXPECT_TRUE(WC.Confirmed) << Fd.str() << ": " << WC.Detail;
      Confirmed += WC.Confirmed;
    }
  }
  EXPECT_EQ(Findings, 10u) << "fixture corpus drifted";
  EXPECT_EQ(Confirmed, Findings) << "confirmation bar is 100%";
}

/// The planted compensation-skip miscompile, driven through the real
/// pipeline: the treated function's lint findings include at least one
/// error with a solved witness, and every solved witness confirms --
/// static detection backed by concrete replay evidence.
TEST(WitnessTest, PlantedCompensationSkipYieldsConfirmedWitness) {
  fault::ScopedFault Inject("cpr.restructure.compensation",
                            fault::EveryHit);
  LintDriver Linter;
  unsigned SolvedConfirmed = 0, SolvedTotal = 0, Errors = 0;
  GeneratorConfig Cfg;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    KernelProgram P = generateProgram(Seed, Cfg);
    PipelineOptions Opts;
    Opts.CheckEquivalence = false;
    Opts.FailSafe = false;
    PipelineRun Session(std::move(P), Opts);
    const Function &Treated = Session.treated();
    if (!verifyFunction(Treated).empty())
      continue; // the verifier caught this one before lint could
    LintResult R = Linter.run(Treated);
    for (const LintFinding &Fd : R.Findings) {
      if (Fd.Severity != DiagSeverity::Error)
        continue;
      ++Errors;
      ASSERT_NE(Fd.Witness, nullptr) << Fd.str();
      if (!Fd.Witness->Solved)
        continue;
      ++SolvedTotal;
      WitnessConfirmation WC = confirmWitness(Treated, *Fd.Witness);
      EXPECT_TRUE(WC.Confirmed) << Fd.str() << ": " << WC.Detail;
      SolvedConfirmed += WC.Confirmed;
    }
  }
  EXPECT_GE(Errors, 1u) << "the planted defect escaped static detection";
  EXPECT_GE(SolvedConfirmed, 1u)
      << "no planted-defect finding produced a replayable witness";
  EXPECT_EQ(SolvedConfirmed, SolvedTotal);
}

/// A region behind a branching prefix cannot be replayed from the entry
/// deterministically; the witness must be unsolved with the reason, not
/// silently wrong.
TEST(WitnessTest, BranchyPrefixIsHonestlyUnsolved) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un = cmpp.lt(r1, 5)
  b1 = pbr(@C)
  branch(p1, b1)
block @B:
  p2 = mov(0)
  b2 = pbr(@C)
  branch(p2, b2)
  halt
block @C:
  halt
}
)");
  LintResult R = LintDriver().run(*F);
  const LintFinding *Dead = nullptr;
  for (const LintFinding &Fd : R.Findings)
    if (Fd.Check == "dead-under-predicate" && Fd.Block == "B")
      Dead = &Fd;
  ASSERT_NE(Dead, nullptr);
  ASSERT_NE(Dead->Witness, nullptr);
  EXPECT_FALSE(Dead->Witness->Solved);
  EXPECT_NE(Dead->Witness->UnsolvedWhy.find("straight-line"),
            std::string::npos)
      << Dead->Witness->UnsolvedWhy;
  WitnessConfirmation WC = confirmWitness(*F, *Dead->Witness);
  EXPECT_FALSE(WC.Ran);
  EXPECT_FALSE(WC.Confirmed);
}

/// The v2 JSON witness object round-trips the replay evidence.
TEST(WitnessTest, JSONCarriesAssignmentAndInputs) {
  std::unique_ptr<Function> F;
  LintResult R = lintFile("use_before_def.ir", F);
  ASSERT_EQ(R.Findings.size(), 1u);
  ASSERT_NE(R.Findings[0].Witness, nullptr);
  JSONValue V = witnessToJSON(*R.Findings[0].Witness);
  EXPECT_TRUE(V.find("solved")->getBool());
  EXPECT_EQ(V.find("expect")->getString(), "use-without-def");
  ASSERT_NE(V.find("assignment"), nullptr);
  ASSERT_NE(V.find("init_regs"), nullptr);
  ASSERT_NE(V.find("path"), nullptr);
  // The writer round-trips through the strict parser.
  JSONParseResult PR = parseJSON(writeJSON(V));
  EXPECT_TRUE(static_cast<bool>(PR)) << PR.Error;
}

} // namespace
