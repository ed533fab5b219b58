//===- tests/sim/BranchTraceTest.cpp - Branch trace + serialization -------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/BranchTrace.h"

#include "interp/Profiler.h"
#include "support/RNG.h"
#include "workloads/Kernels.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

TEST(BranchTraceTest, UnboundedKeepsEverything) {
  BranchTrace T;
  for (OpId I = 1; I <= 100; ++I)
    T.record(I, I % 3 == 0);
  EXPECT_EQ(T.size(), 100u);
  EXPECT_EQ(T.event(0).Op, 1u);
  EXPECT_EQ(T.event(99).Op, 100u);
  EXPECT_FALSE(T.hasTerminal());
}

TEST(BranchTraceTest, ClearResetsEverything) {
  BranchTrace T;
  T.record(1, true);
  T.record(2, false);
  T.record(3, true);
  T.markTerminal(9);
  T.clear();
  EXPECT_EQ(T.size(), 0u);
  EXPECT_FALSE(T.hasTerminal());
  // Recording restarts cleanly after clear.
  T.record(4, true);
  EXPECT_EQ(T.size(), 1u);
  EXPECT_EQ(T.event(0).Op, 4u);
}

TEST(BranchTraceTest, RunLengthEncodingCollapsesLoops) {
  BranchTrace T;
  for (int I = 0; I < 1000; ++I)
    T.record(7, true);
  T.record(7, false);
  T.markTerminal(3);
  std::string Text = serializeBranchTrace(T);
  EXPECT_EQ(Text, "btrace v1\nev 7 t 1000\nev 7 n 1\nterm 3\n");
}

// The round-trip guarantee mirrored from ProfileIOTest: a real
// interpreter-recorded trace survives serialize + parse bit-exactly.
TEST(BranchTraceTest, InterpreterTraceRoundTrips) {
  KernelProgram P = buildWcKernel(4, 2048, 17);
  Memory Mem = P.InitMem;
  BranchTrace T;
  profileRun(*P.Func, Mem, P.InitRegs, nullptr, &T);
  ASSERT_GT(T.size(), 0u);
  ASSERT_TRUE(T.hasTerminal());

  Expected<BranchTrace> R = tryParseBranchTrace(serializeBranchTrace(T));
  ASSERT_TRUE(R.ok()) << R.diagnostic().str();
  ASSERT_EQ(R->size(), T.size());
  for (size_t I = 0; I < T.size(); ++I)
    EXPECT_TRUE(R->event(I) == T.event(I)) << "event " << I;
  EXPECT_EQ(R->terminalOp(), T.terminalOp());

  // And serialization is a fixed point.
  EXPECT_EQ(serializeBranchTrace(*R), serializeBranchTrace(T));
}

TEST(BranchTraceTest, ParseErrors) {
  auto Rejects = [](const char *Text) {
    return !tryParseBranchTrace(Text).ok();
  };
  EXPECT_TRUE(Rejects(""));                        // no header
  EXPECT_TRUE(Rejects("ev 1 t 1\n"));              // missing header
  EXPECT_TRUE(Rejects("btrace v2\n"));             // bad version
  EXPECT_TRUE(Rejects("btrace v1\nbogus\n"));      // unknown record
  EXPECT_TRUE(Rejects("btrace v1\nev 1 x 2\n"));   // bad direction
  EXPECT_TRUE(Rejects("btrace v1\nev 1 t 0\n"));   // zero run
  EXPECT_TRUE(Rejects("btrace v1\nterm\n"));       // missing id
  EXPECT_TRUE(Rejects("btrace v1\ndrop x\n"));     // no drop record

  Expected<BranchTrace> Ok = tryParseBranchTrace(
      "# comment\nbtrace v1\nev 4 t 2 # trailing\n\nterm 8\n");
  ASSERT_TRUE(Ok.ok()) << Ok.diagnostic().str();
  EXPECT_EQ(Ok->size(), 2u);
  EXPECT_EQ(Ok->terminalOp(), 8u);
}

// --- btrace v1 hygiene -----------------------------------------------

TEST(BranchTraceTest, MalformedLinesAreRecoverableParseErrors) {
  // Every rejection is a recoverable Error diagnostic with the stable
  // parse-error code and the 1-based line of the offending record --
  // never a fatal, so readers can skip a bad trace and keep going.
  struct Case {
    const char *Text;
    unsigned Line;
  };
  for (const Case &C : std::initializer_list<Case>{
           {"", 0},                                        // missing header
           {"btrace v2\n", 1},                             // bad version
           {"btrace v1\nbogus 1\n", 2},                    // unknown record
           {"btrace v1\nev 1 t 1\nev 2 q 1\n", 3},         // bad direction
           {"btrace v1\nev 1 t 1 extra\n", 2},             // trailing token
           {"btrace v1\nev 4294967296 t 1\n", 2},          // id wider than OpId
           {"btrace v1\nev 1 t 1\nterm 3\nterm 3\n", 4},   // duplicate term
           {"btrace v1\nev 1 t 1\nterm 3\nev 1 t 1\n", 4}, // event after term
           {"btrace v1\ndrop 1\n", 2},                     // no drop record
           {"btrace v1\nev 1 t 1\ndrop 0\n", 3},           // ... anywhere
       }) {
    Expected<BranchTrace> E = tryParseBranchTrace(C.Text);
    ASSERT_FALSE(E.ok()) << C.Text;
    const Diagnostic &D = E.diagnostic();
    EXPECT_EQ(D.Severity, DiagSeverity::Error) << C.Text;
    EXPECT_EQ(D.Code, DiagCode::ParseError) << C.Text;
    EXPECT_EQ(D.Line, C.Line) << C.Text;
  }
}

TEST(BranchTraceTest, RunLengthsAboveTheCapAreRejected) {
  // The parser expands RLE runs into events; an attacker-chosen count
  // must not let one line materialize gigabytes. (Expanding a run at the
  // cap itself is legal but costs gigabytes, so only the rejection side
  // is exercised here.)
  std::string OverCap = "btrace v1\nev 1 t " +
                        std::to_string(MaxTraceRunLength + 1) + "\nterm 2\n";
  Expected<BranchTrace> Bad = tryParseBranchTrace(OverCap);
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.diagnostic().Code, DiagCode::ParseError);
  EXPECT_EQ(Bad.diagnostic().Line, 2u);
}

TEST(BranchTraceTest, SerializationIsAFixedPointOverGeneratedPrograms) {
  // Property: serialize -> parse -> serialize is byte-identity for any
  // interpreter-recorded trace, across the fuzzer's application-shaped
  // program family (varied branch structure, bias, and loop shape).
  for (uint64_t Seed : {3u, 17u, 40u, 81u, 204u}) {
    RNG Rng(Seed);
    SyntheticParams SP = randomSyntheticParams(Rng);
    SP.Trips = std::min(SP.Trips, 64u); // bound interpretation cost
    KernelProgram P =
        buildSyntheticProgram("prop" + std::to_string(Seed), SP);

    Memory Mem = P.InitMem;
    BranchTrace T;
    profileRun(*P.Func, Mem, P.InitRegs, nullptr, &T);
    ASSERT_TRUE(T.hasTerminal()) << "seed " << Seed;

    std::string Text = serializeBranchTrace(T);
    Expected<BranchTrace> R = tryParseBranchTrace(Text);
    ASSERT_TRUE(R.ok()) << "seed " << Seed << ": " << R.diagnostic().str();
    EXPECT_EQ(serializeBranchTrace(*R), Text) << "seed " << Seed;

    // The parsed trace is semantically identical too, not just
    // textually: same events and terminal.
    ASSERT_EQ(R->size(), T.size()) << "seed " << Seed;
    for (size_t I = 0; I < T.size(); ++I)
      ASSERT_TRUE(R->event(I) == T.event(I)) << "seed " << Seed << " ev " << I;
    EXPECT_EQ(R->terminalOp(), T.terminalOp());
  }
}

} // namespace
