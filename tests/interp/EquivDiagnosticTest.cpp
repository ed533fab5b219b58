//===- tests/interp/EquivDiagnosticTest.cpp - Divergence diagnostics ------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The equivalence oracle must not just say "mismatch": it names the first
// diverging artifact (exit path, observable register, or memory cell) so
// fuzz findings and `cprc --check-equivalence` failures are triageable.
// These tests pin the classification, the fixed comparison order, and the
// artifact naming.
//
//===----------------------------------------------------------------------===//

#include "interp/Profiler.h"

#include "ir/IRParser.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

EquivResult check(const std::string &SrcA, const std::string &SrcB,
                  const Memory &Mem = Memory(),
                  const std::vector<RegBinding> &Init = {}) {
  std::unique_ptr<Function> A = parseFunctionOrDie(SrcA);
  std::unique_ptr<Function> B = parseFunctionOrDie(SrcB);
  return checkEquivalence(*A, *B, Mem, Init);
}

TEST(EquivDiagnosticTest, EquivalentProgramsReportNone) {
  const std::string Src = R"(
func @f {
  observable r1
block @A:
  r1 = add(2, 3)
  halt
}
)";
  EquivResult E = check(Src, Src);
  EXPECT_TRUE(E.Equivalent);
  EXPECT_EQ(E.Kind, EquivResult::Divergence::None);
  EXPECT_STREQ(divergenceName(E.Kind), "none");
}

TEST(EquivDiagnosticTest, RegisterDivergenceNamesTheRegister) {
  EquivResult E = check(R"(
func @f {
  observable r1, r2
block @A:
  r1 = mov(7)
  r2 = mov(10)
  halt
}
)",
                        R"(
func @f {
  observable r1, r2
block @A:
  r1 = mov(7)
  r2 = mov(11)
  halt
}
)");
  ASSERT_FALSE(E.Equivalent);
  EXPECT_EQ(E.Kind, EquivResult::Divergence::Register);
  EXPECT_STREQ(divergenceName(E.Kind), "register");
  // The first diverging register is named, with both values.
  EXPECT_NE(E.Detail.find("r2"), std::string::npos) << E.Detail;
  EXPECT_NE(E.Detail.find("10"), std::string::npos) << E.Detail;
  EXPECT_NE(E.Detail.find("11"), std::string::npos) << E.Detail;
  // r1 agrees and must not be blamed.
  EXPECT_EQ(E.Detail.find("r1"), std::string::npos) << E.Detail;
}

TEST(EquivDiagnosticTest, MemoryDivergenceNamesLowestAddressAndLastStore) {
  EquivResult E = check(R"(
func @f {
block @A:
  store.m1(500, 1)
  store.m1(100, 1)
  halt
}
)",
                        R"(
func @f {
block @A:
  store.m1(500, 2)
  store.m1(100, 2)
  halt
}
)");
  ASSERT_FALSE(E.Equivalent);
  EXPECT_EQ(E.Kind, EquivResult::Divergence::Memory);
  EXPECT_STREQ(divergenceName(E.Kind), "memory");
  // Both 100 and 500 diverge; the lowest address is reported,
  // deterministically, with the last store to it in each run.
  EXPECT_NE(E.Detail.find("100"), std::string::npos) << E.Detail;
  EXPECT_EQ(E.Detail.find("500"), std::string::npos) << E.Detail;
  EXPECT_NE(E.Detail.find("store"), std::string::npos) << E.Detail;
}

TEST(EquivDiagnosticTest, MemoryDivergenceExplainsNeverStoredCells) {
  EquivResult E = check(R"(
func @f {
block @A:
  store.m1(64, 5)
  halt
}
)",
                        R"(
func @f {
block @A:
  halt
}
)");
  ASSERT_FALSE(E.Equivalent);
  EXPECT_EQ(E.Kind, EquivResult::Divergence::Memory);
  EXPECT_NE(E.Detail.find("never stored"), std::string::npos) << E.Detail;
}

TEST(EquivDiagnosticTest, ExitPathDivergenceDescribesBothExits) {
  EquivResult E = check(R"(
func @f {
block @A:
  halt
}
)",
                        R"(
func @f {
block @A:
  trap
}
)");
  ASSERT_FALSE(E.Equivalent);
  EXPECT_EQ(E.Kind, EquivResult::Divergence::ExitPath);
  EXPECT_STREQ(divergenceName(E.Kind), "exit-path");
  EXPECT_NE(E.Detail.find("halted"), std::string::npos) << E.Detail;
  EXPECT_NE(E.Detail.find("trapped"), std::string::npos) << E.Detail;
}

TEST(EquivDiagnosticTest, ExitPathOutranksRegisterAndMemory) {
  // The trapped run also leaves r1 and memory different; the fixed
  // comparison order must still blame the exit path first.
  EquivResult E = check(R"(
func @f {
  observable r1
block @A:
  r1 = mov(1)
  store.m1(8, 1)
  halt
}
)",
                        R"(
func @f {
  observable r1
block @A:
  r1 = mov(2)
  store.m1(8, 2)
  trap
}
)");
  ASSERT_FALSE(E.Equivalent);
  EXPECT_EQ(E.Kind, EquivResult::Divergence::ExitPath);
}

TEST(EquivDiagnosticTest, RegisterOutranksMemory) {
  EquivResult E = check(R"(
func @f {
  observable r1
block @A:
  r1 = mov(1)
  store.m1(8, 1)
  halt
}
)",
                        R"(
func @f {
  observable r1
block @A:
  r1 = mov(2)
  store.m1(8, 2)
  halt
}
)");
  ASSERT_FALSE(E.Equivalent);
  EXPECT_EQ(E.Kind, EquivResult::Divergence::Register);
}

TEST(EquivDiagnosticTest, InputsFlowIntoComparison) {
  // Same code, diverging only on an initial register: both runs see the
  // same inputs, so they agree.
  const std::string Src = R"(
func @f {
  observable r2
block @A:
  r2 = add(r1, 1)
  halt
}
)";
  Memory Mem;
  EquivResult E = check(Src, Src, Mem, {{Reg::gpr(1), 41}});
  EXPECT_TRUE(E.Equivalent);
}

/// Baseline / candidate pairs covering every verdict of the oracle.
const std::vector<std::pair<std::string, std::string>> &divergencePairs() {
  static const std::vector<std::pair<std::string, std::string>> Pairs = {
      // equivalent
      {"func @f {\n  observable r2\nblock @A:\n  r2 = add(r1, 1)\n"
       "  store.m1(r1, r2)\n  halt\n}\n",
       "func @f {\n  observable r2\nblock @A:\n  r2 = add(r1, 1)\n"
       "  store.m1(r1, r2)\n  halt\n}\n"},
      // register
      {"func @f {\n  observable r1, r2\nblock @A:\n  r1 = mov(7)\n"
       "  r2 = mov(10)\n  halt\n}\n",
       "func @f {\n  observable r1, r2\nblock @A:\n  r1 = mov(7)\n"
       "  r2 = mov(11)\n  halt\n}\n"},
      // memory, both runs storing
      {"func @f {\nblock @A:\n  store.m1(500, 1)\n  store.m1(100, 1)\n"
       "  halt\n}\n",
       "func @f {\nblock @A:\n  store.m1(500, 2)\n  store.m1(100, 2)\n"
       "  halt\n}\n"},
      // memory, one run never storing
      {"func @f {\nblock @A:\n  store.m1(64, 5)\n  halt\n}\n",
       "func @f {\nblock @A:\n  halt\n}\n"},
      // exit path
      {"func @f {\nblock @A:\n  halt\n}\n",
       "func @f {\nblock @A:\n  trap\n}\n"},
      // neither halts
      {"func @f {\nblock @A:\n  trap\n}\n",
       "func @f {\nblock @A:\n  trap\n}\n"},
  };
  return Pairs;
}

TEST(RecordedOracleTest, RecordedStatesGiveTheTwoRunVerdict) {
  Memory Mem;
  Mem.store(40, 3);
  std::vector<RegBinding> Init = {{Reg::gpr(1), 40}};
  for (const auto &[SrcA, SrcB] : divergencePairs()) {
    std::unique_ptr<Function> A = parseFunctionOrDie(SrcA);
    std::unique_ptr<Function> B = parseFunctionOrDie(SrcB);
    EquivResult Want = checkEquivalence(*A, *B, Mem, Init);
    SCOPED_TRACE(Want.Detail);
    RunState SA = recordRun(*A, Mem, Init);
    RunState SB = recordRun(*B, Mem, Init);
    bool Cold = Want.Kind == EquivResult::Divergence::Memory;

    // Baseline state recorded: one candidate run decides, and only a
    // memory divergence re-runs both to name the stores.
    uint64_t Runs = 0;
    EquivResult Got =
        checkAgainstBaseline(*A, SA, *B, nullptr, Mem, Init, &Runs);
    EXPECT_EQ(Got.Equivalent, Want.Equivalent);
    EXPECT_EQ(Got.Kind, Want.Kind);
    EXPECT_EQ(Got.Detail, Want.Detail);
    EXPECT_EQ(Runs, Cold ? 3u : 1u);

    // Both states recorded: no run unless the detail needs the stores.
    Runs = 0;
    Got = checkAgainstBaseline(*A, SA, *B, &SB, Mem, Init, &Runs);
    EXPECT_EQ(Got.Detail, Want.Detail);
    EXPECT_EQ(Runs, Cold ? 2u : 0u);
  }
}

TEST(RecordedOracleTest, RegionCheckReportsAtTheOracleFaultSite) {
  const auto &[SrcA, SrcB] = divergencePairs()[1]; // register divergence
  std::unique_ptr<Function> A = parseFunctionOrDie(SrcA);
  std::unique_ptr<Function> B = parseFunctionOrDie(SrcB);
  RunState SA = recordRun(*A, Memory(), {});

  Status Same = checkRegionEquivalence(*A, SA, *A, Memory(), {}, 0);
  EXPECT_TRUE(Same.ok());

  Status Diff = checkRegionEquivalence(*A, SA, *B, Memory(), {}, 0);
  ASSERT_FALSE(Diff.ok());
  EXPECT_EQ(Diff.diagnostic().Code, DiagCode::OracleMismatch);
  EXPECT_EQ(Diff.diagnostic().Site, "interp.oracle");
  EXPECT_EQ(Diff.diagnostic().Message,
            "region equivalence re-check failed [register]: " +
                checkEquivalence(*A, *B, Memory(), {}).Detail);

  fault::ScopedFault Armed("interp.oracle", 1);
  Status Injected = checkRegionEquivalence(*A, SA, *A, Memory(), {}, 0);
  ASSERT_FALSE(Injected.ok());
  EXPECT_EQ(Injected.diagnostic().Message, "injected fault");
  EXPECT_EQ(Injected.diagnostic().Site, "interp.oracle");
}

TEST(RecordedOracleTest, RegionCheckRunsTheCandidateUnderItsStepCap) {
  // A candidate that loops where the baseline halts is stopped by the
  // session's cap, not run on to DefaultMaxSteps, and its region fails
  // the re-check on the exit path. A session's cap is its InterpMaxSteps
  // as given, DefaultMaxSteps only when that is 0.
  std::unique_ptr<Function> Halts =
      parseFunctionOrDie("func @f {\nblock @A:\n  halt\n}\n");
  std::unique_ptr<Function> Loops = parseFunctionOrDie(
      "func @f {\nblock @Loop:\n  b1 = pbr(@Loop)\n  branch(T, b1)\n}\n");
  RunState Base = recordRun(*Halts, Memory(), {});
  uint64_t Runs = 0;
  Status S =
      checkRegionEquivalence(*Halts, Base, *Loops, Memory(), {}, 1000, &Runs);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.diagnostic().Code, DiagCode::OracleMismatch);
  EXPECT_NE(S.diagnostic().Message.find("hit the step limit after 1000 steps"),
            std::string::npos)
      << S.diagnostic().Message;
  EXPECT_EQ(Runs, 1u);
  EXPECT_EQ(sessionStepCap(1000), 1000u);
  EXPECT_EQ(sessionStepCap(0), DefaultMaxSteps);
  EXPECT_EQ(sessionStepCap(DefaultMaxSteps + 1), DefaultMaxSteps + 1);
}

} // namespace
