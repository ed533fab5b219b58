//===- tests/lint/LintCorpusTest.cpp - Clean-corpus regression ------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The whole paper suite, before and after the CPR treatment, must come
// back lint-clean: the transform establishes the invariants the checks
// prove, and the checks are conservative enough not to cry wolf on any
// seed workload (the acceptance bar of docs/LINT.md).
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "cpr/ControlCPR.h"
#include "interp/Profiler.h"
#include "workloads/BenchmarkSuite.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace cpr;

namespace {

std::string joined(const LintResult &R) {
  std::ostringstream OS;
  for (const LintFinding &F : R.Findings)
    OS << F.str() << "\n";
  return OS.str();
}

TEST(LintCorpus, EverySeedWorkloadIsCleanPreAndPostCPR) {
  LintDriver Driver;
  for (const BenchmarkSpec &Spec : paperBenchmarkSuite()) {
    KernelProgram P = Spec.Build();
    // The kernel's arguments are InitRegs bindings; declare them so
    // uninit-read knows the environment initializes them.
    LintResult Pre = Driver.run(*P.Func, nullptr, &P.InitRegs);
    EXPECT_TRUE(Pre.clean()) << Spec.Name << " (baseline):\n" << joined(Pre);

    Memory Mem = P.InitMem;
    ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
    std::unique_ptr<Function> Treated = P.Func->clone();
    runControlCPR(*Treated, Prof, CPROptions());
    LintResult Post = Driver.run(*Treated, nullptr, &P.InitRegs);
    EXPECT_TRUE(Post.clean())
        << Spec.Name << " (post-cpr):\n" << joined(Post);
  }
}

} // namespace
