//===- tests/fuzz/GeneratorTest.cpp - Random program generator ------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The differential oracle relies on three generator properties: every
// generated program verifies, halts quickly, and is a pure function of
// its seed. The mutator must preserve the first two.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Generator.h"

#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

constexpr uint64_t kHaltBudget = 5'000'000;

RunResult boundedRun(const KernelProgram &P) {
  Memory Mem = P.InitMem;
  InterpOptions IO;
  IO.MaxSteps = kHaltBudget;
  return interpret(*P.Func, Mem, P.InitRegs, IO);
}

TEST(GeneratorTest, ManySeedsVerifyAndHalt) {
  GeneratorConfig Cfg;
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    KernelProgram P = generateProgram(Seed, Cfg);
    ASSERT_TRUE(verifyFunction(*P.Func).empty()) << "seed " << Seed;
    RunResult R = boundedRun(P);
    ASSERT_TRUE(R.halted())
        << "seed " << Seed << ": " << R.ErrorMsg << " after " << R.Steps
        << " steps";
  }
}

TEST(GeneratorTest, SameSeedSameProgram) {
  GeneratorConfig Cfg;
  for (uint64_t Seed : {1ull, 17ull, 999ull}) {
    KernelProgram A = generateProgram(Seed, Cfg);
    KernelProgram B = generateProgram(Seed, Cfg);
    EXPECT_EQ(printFunction(*A.Func), printFunction(*B.Func));
    EXPECT_EQ(A.InitRegs.size(), B.InitRegs.size());
    EXPECT_EQ(A.InitMem.sortedCells(), B.InitMem.sortedCells());
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorConfig Cfg;
  KernelProgram A = generateProgram(1, Cfg);
  KernelProgram B = generateProgram(2, Cfg);
  EXPECT_NE(printFunction(*A.Func), printFunction(*B.Func));
}

TEST(GeneratorTest, KnobsShapeThePrograms) {
  // Straight-line-only config: no loops means every program runs in a
  // number of steps bounded by its static operation count.
  GeneratorConfig Flat;
  Flat.MaxLoopDepth = 0;
  Flat.SyntheticFrac = 0.0;
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    KernelProgram P = generateProgram(Seed, Flat);
    RunResult R = boundedRun(P);
    ASSERT_TRUE(R.halted());
    EXPECT_LE(R.Steps, P.Func->totalOps() + 1) << "seed " << Seed;
  }
}

TEST(GeneratorTest, BlockCapBoundsProgramSize) {
  GeneratorConfig Small;
  Small.MaxBlocks = 12;
  Small.SyntheticFrac = 0.0;
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    KernelProgram P = generateProgram(Seed, Small);
    // Soft cap: structures already begun still complete (loop tails,
    // stub bodies, exit), so allow headroom -- but a runaway region
    // expansion would blow far past this.
    EXPECT_LE(P.Func->numBlocks(), 2 * 12 + 4) << "seed " << Seed;
  }
}

TEST(GeneratorTest, MutantsVerifyHaltAndAreDeterministic) {
  GeneratorConfig Cfg;
  ProgramMutator Mut(Cfg);
  KernelProgram Base = generateProgram(42, Cfg);
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    RNG RngA(Seed), RngB(Seed);
    KernelProgram MA = Mut.mutate(Base, RngA);
    KernelProgram MB = Mut.mutate(Base, RngB);
    ASSERT_TRUE(verifyFunction(*MA.Func).empty()) << "seed " << Seed;
    ASSERT_TRUE(boundedRun(MA).halted()) << "seed " << Seed;
    // Same RNG stream, same mutant.
    EXPECT_EQ(printFunction(*MA.Func), printFunction(*MB.Func));
    EXPECT_EQ(MA.InitMem.sortedCells(), MB.InitMem.sortedCells());
  }
}

TEST(GeneratorTest, MutationLeavesTheOriginalIntact) {
  GeneratorConfig Cfg;
  ProgramMutator Mut(Cfg);
  KernelProgram Base = generateProgram(7, Cfg);
  std::string Before = printFunction(*Base.Func);
  RNG Rng(3);
  (void)Mut.mutate(Base, Rng);
  EXPECT_EQ(printFunction(*Base.Func), Before);
}

TEST(GeneratorTest, SyntheticFamilyIsReachable) {
  GeneratorConfig Cfg;
  Cfg.SyntheticFrac = 1.0;
  KernelProgram P = generateProgram(5, Cfg);
  EXPECT_EQ(P.Func->getName().rfind("fuzz_syn_", 0), 0u)
      << P.Func->getName();
  ASSERT_TRUE(verifyFunction(*P.Func).empty());
  ASSERT_TRUE(boundedRun(P).halted());
}

} // namespace
