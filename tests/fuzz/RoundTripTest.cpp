//===- tests/fuzz/RoundTripTest.cpp - Textual IR as corpus format ---------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The corpus and every minimized reproducer are stored as textual IR, so
// print -> parse -> print must be a fixpoint over the whole generated
// program space -- any gap silently corrupts saved findings. The corpus
// wrapper (directives + IR) must round-trip the full executable case.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"

#include "fuzz/Generator.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

TEST(FuzzRoundTripTest, PrintParsePrintIsAFixpointOverGeneratedPrograms) {
  GeneratorConfig Cfg;
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    KernelProgram P = generateProgram(Seed, Cfg);
    std::string First = printFunction(*P.Func);
    ParseResult PR = parseFunction(First);
    ASSERT_TRUE(PR) << "seed " << Seed << " line " << PR.Line << ": "
                    << PR.Error << "\n"
                    << First;
    EXPECT_TRUE(verifyFunction(*PR.Func).empty()) << "seed " << Seed;
    EXPECT_EQ(printFunction(*PR.Func), First) << "seed " << Seed;
  }
}

TEST(FuzzRoundTripTest, PrintParsePrintIsAFixpointOverMutants) {
  GeneratorConfig Cfg;
  ProgramMutator Mut(Cfg);
  KernelProgram Base = generateProgram(3, Cfg);
  RNG Rng(99);
  for (int I = 0; I < 15; ++I) {
    KernelProgram M = Mut.mutate(Base, Rng);
    std::string First = printFunction(*M.Func);
    ParseResult PR = parseFunction(First);
    ASSERT_TRUE(PR) << PR.Error << "\n" << First;
    EXPECT_EQ(printFunction(*PR.Func), First);
  }
}

TEST(FuzzRoundTripTest, CorpusFormatRoundTripsTheExecutableCase) {
  GeneratorConfig Cfg;
  for (uint64_t Seed : {0ull, 4ull, 11ull, 23ull}) {
    KernelProgram P = generateProgram(Seed, Cfg);
    std::string Text = serializeFuzzProgram(P);
    // Magic first line, then a valid cprc input.
    EXPECT_EQ(Text.rfind(FuzzProgramMagic, 0), 0u);

    FuzzParseResult FR = parseFuzzProgram(Text);
    ASSERT_TRUE(FR) << FR.Error;
    EXPECT_EQ(printFunction(*FR.Program.Func), printFunction(*P.Func));
    EXPECT_EQ(FR.Program.InitMem.sortedCells(), P.InitMem.sortedCells());
    ASSERT_EQ(FR.Program.InitRegs.size(), P.InitRegs.size());
    for (size_t I = 0; I < P.InitRegs.size(); ++I) {
      EXPECT_EQ(FR.Program.InitRegs[I].R, P.InitRegs[I].R);
      EXPECT_EQ(FR.Program.InitRegs[I].Value, P.InitRegs[I].Value);
    }

    // Serialization is deterministic: a second pass is byte-identical.
    EXPECT_EQ(serializeFuzzProgram(FR.Program), Text);
  }
}

TEST(FuzzRoundTripTest, PlainIRWithoutDirectivesParses) {
  FuzzParseResult FR = parseFuzzProgram(R"(
func @f {
block @A:
  halt
}
)");
  ASSERT_TRUE(FR) << FR.Error;
  EXPECT_TRUE(FR.Program.InitRegs.empty());
  EXPECT_TRUE(FR.Program.InitMem.sortedCells().empty());
}

TEST(FuzzRoundTripTest, MalformedProgramReportsAnError) {
  FuzzParseResult FR = parseFuzzProgram("func @broken {\n");
  EXPECT_FALSE(FR);
  EXPECT_FALSE(FR.Error.empty());
}

TEST(FuzzRoundTripTest, FileRoundTrip) {
  GeneratorConfig Cfg;
  KernelProgram P = generateProgram(8, Cfg);
  std::string Path = ::testing::TempDir() + "cpr_fuzz_roundtrip.ir";
  std::string Error;
  ASSERT_TRUE(writeFuzzProgramFile(P, Path, &Error)) << Error;
  FuzzParseResult FR = loadFuzzProgramFile(Path);
  ASSERT_TRUE(FR) << FR.Error;
  EXPECT_EQ(printFunction(*FR.Program.Func), printFunction(*P.Func));
  EXPECT_EQ(FR.Program.InitMem.sortedCells(), P.InitMem.sortedCells());
}

} // namespace
