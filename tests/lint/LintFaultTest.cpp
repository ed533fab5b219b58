//===- tests/lint/LintFaultTest.cpp - Fault sites vs the static checks ----===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Closes the loop between the fault-injection registry and cpr-lint:
// every registered fault site is armed over a fail-safe CPR run, and the
// result is linted. Sites whose failure is diagnosed and rolled back must
// leave a lint-clean function; the one site that corrupts the IR while
// staying verifier-clean (the compensation-skip miscompile) must be
// caught *statically* by the checks.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"
#include "lint/Witness.h"

#include "cpr/ControlCPR.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "support/Error.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace cpr;

namespace {

/// Single-region kernel whose heavily biased exits collapse into a
/// fall-through-variation CPR block with a compensation block (the same
/// fixture the transaction tests drive).
std::unique_ptr<Function> cprKernel() {
  return parseFunctionOrDie(R"(
func @g {
block @A:
  r21 = load.m1(r1)
  p1:un, p2:uc = cmpp.eq(r21, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r22 = load.m1(r2)
  p3:un, p4:uc = cmpp.lt(r22, 5) if p2
  b2 = pbr(@X)
  branch(p3, b2)
  store.m2(r5, r22) if p4
  halt
block @X:
  halt
}
)");
}

ProfileData biasedProfile(const Function &F) {
  ProfileData Prof;
  for (const Operation &Op : F.block(0).ops())
    if (Op.isBranch()) {
      Prof.addBranchReached(Op.getId(), 100);
      Prof.addBranchTaken(Op.getId(), 2);
    }
  return Prof;
}

std::string joined(const LintResult &R) {
  std::ostringstream OS;
  for (const LintFinding &F : R.Findings)
    OS << F.str() << "\n";
  return OS.str();
}

/// Every registered fault site, armed once over a fail-safe transform of
/// the kernel. The contract per site:
///  - a diagnosed failure rolls the region back, so the function lints
///    clean (it is the baseline again);
///  - a site that never fires leaves an ordinary (clean) treatment;
///  - the verifier-clean corruption site is the one case the verifier
///    and the rollback machinery both miss -- the static checks must
///    catch it.
TEST(LintFault, EverySiteIsRolledBackOrCaughtStatically) {
  const std::string CorruptingSite = "cpr.restructure.compensation";
  std::vector<std::string> Sites = fault::sites();
  ASSERT_GE(Sites.size(), 7u);
  bool SawCorruptingSite = false;
  LintDriver Linter;
  for (const std::string &Site : Sites) {
    std::unique_ptr<Function> F = cprKernel();
    std::string Before = printFunction(*F);
    ProfileData Prof = biasedProfile(*F);

    fault::ScopedFault Armed(Site, 1);
    CPRContext Ctx;
    Ctx.FailSafe = true;
    DiagnosticEngine Diags;
    Ctx.Diags = &Diags;
    ScopedFatalErrorTrap Trap;
    try {
      runControlCPR(*F, Prof, CPROptions(), Ctx);
    } catch (const FatalError &E) {
      ADD_FAILURE() << Site << ": fail-safe run crashed: " << E.message();
      continue;
    }
    bool Fired = fault::fired();

    EXPECT_TRUE(verifyFunction(*F).empty())
        << Site << ": fail-safe run left structurally invalid IR";
    LintResult R = Linter.run(*F);
    if (Site == CorruptingSite) {
      SawCorruptingSite = true;
      ASSERT_TRUE(Fired) << "kernel stopped forming a compensation block";
      // The defect is invisible to the verifier and to rollback
      // accounting -- the transaction committed believing it succeeded.
      EXPECT_GE(R.errorCount(), 1u)
          << "verifier-clean corruption escaped the static checks";
      bool HasCompFinding = false;
      for (const LintFinding &Finding : R.Findings)
        if (Finding.Code == DiagCode::LintCompensation) {
          HasCompFinding = true;
          // v2: the static claim comes with replay evidence.
          ASSERT_NE(Finding.Witness, nullptr);
          if (Finding.Witness->Solved) {
            WitnessConfirmation WC = confirmWitness(*F, *Finding.Witness);
            EXPECT_TRUE(WC.Confirmed) << WC.Detail;
          }
        }
      EXPECT_TRUE(HasCompFinding) << joined(R);
    } else {
      EXPECT_EQ(R.errorCount(), 0u) << Site << ":\n" << joined(R);
      if (Fired) {
        // Diagnosed failure: the region rolled back to the byte-exact
        // baseline and the failure was reported.
        EXPECT_EQ(printFunction(*F), Before) << Site;
        EXPECT_GE(Diags.errorCount(), 1u) << Site;
      }
    }
  }
  EXPECT_TRUE(SawCorruptingSite);
}

} // namespace
