//===- tests/ir/IRRoundTripTest.cpp - Printer/parser round trips ----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

TEST(IRRoundTripTest, BuilderPrintsPaperLikeListing) {
  Function F("strcpy_fragment");
  Block &Loop = F.addBlock("Loop");
  Block &Exit = F.addBlock("Exit");
  IRBuilder B(F, Loop);

  Reg R1 = F.newReg(RegClass::GPR);
  Reg R2 = F.newReg(RegClass::GPR);
  Reg R21 = B.emitArith(Opcode::Add, Operand::reg(R2), Operand::imm(0));
  B.emitStore(R21, Operand::reg(R1), /*AliasClass=*/1);
  Reg R31 = B.emitLoad(R1, /*AliasClass=*/2);
  auto [P51, P61] = B.emitCmpp2(CompareCond::EQ, Operand::reg(R31),
                                Operand::imm(0), CmppAction::UN,
                                CmppAction::UC);
  B.emitBranchTo(Exit, P51);
  B.emitStore(R21, Operand::reg(R31), /*AliasClass=*/1, P61);
  B.emitHalt();
  B.setInsertBlock(Exit);
  B.emitHalt();

  verifyOrDie(F, "builder test");
  std::string Text = printFunction(F);
  EXPECT_NE(Text.find("cmpp.eq"), std::string::npos);
  EXPECT_NE(Text.find(":un"), std::string::npos);
  EXPECT_NE(Text.find("pbr(@Exit)"), std::string::npos);
  EXPECT_NE(Text.find("store.m1"), std::string::npos);
  EXPECT_NE(Text.find("if " + P61.str()), std::string::npos);
}

TEST(IRRoundTripTest, ParsePrintFixpoint) {
  const char *Src = R"(
func @demo {
  observable r9
block @Loop:
  r21 = add(r2, 0)
  store.m1(r21, r34)
  r11 = add(r1, 1)
  r31 = load.m2(r11)
  b41 = pbr(@Exit)
  p51:un, p61:uc = cmpp.eq(r31, 0)
  branch(p51, b41)
  r22 = add(r2, 1)
  store.m1(r22, r31) if p61
  r9 = max(r22, r31)
  halt
block @Exit: compensation
  p7 = mov(0)
  p7 = mov(p61) if p51
  f2 = fadd(f1, f1)
  r9 = min(r22, 7) if p7
  halt
}
)";
  std::unique_ptr<Function> F = parseFunctionOrDie(Src);
  EXPECT_TRUE(verifyFunction(*F).empty());

  std::string Once = printFunction(*F);
  std::unique_ptr<Function> F2 = parseFunctionOrDie(Once);
  std::string Twice = printFunction(*F2);
  EXPECT_EQ(Once, Twice);

  // Structure checks.
  EXPECT_EQ(F->numBlocks(), 2u);
  EXPECT_TRUE(F->block(1).isCompensation());
  EXPECT_EQ(F->observableRegs().size(), 1u);
  EXPECT_EQ(F->block(0).size(), 11u);
}

TEST(IRRoundTripTest, ParserResolvesForwardLabels) {
  const char *Src = R"(
func @fwd {
block @A:
  b1 = pbr(@C)
  p1:un = cmpp.lt(r1, 5)
  branch(p1, b1)
  halt
block @B:
  halt
block @C:
  halt
}
)";
  std::unique_ptr<Function> F = parseFunctionOrDie(Src);
  EXPECT_TRUE(verifyFunction(*F).empty());
  const Operation &Pbr = F->block(0).ops()[0];
  EXPECT_EQ(Pbr.pbrTarget(), F->blockByName("C")->getId());
}

TEST(IRRoundTripTest, ParserReservesRegisterIds) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @ids {
block @A:
  r17 = add(r3, 4)
  halt
}
)");
  // A freshly allocated register must not collide with parsed ones.
  Reg Fresh = F->newReg(RegClass::GPR);
  EXPECT_GT(Fresh.getId(), 17u);
}

TEST(IRRoundTripTest, ParserReportsErrors) {
  struct Case {
    const char *Src;
    const char *ErrorFragment;
  };
  const Case Cases[] = {
      {"func @x {\nblock @A:\n  r1 = bogus(r2, r3)\n  halt\n}",
       "unknown opcode"},
      {"func @x {\nblock @A:\n  r1 = add(r2, @A)\n  halt\n}", ""},
      {"func @x {\nblock @A:\n  b1 = pbr(@Nowhere)\n  halt\n}",
       "unknown block"},
      {"func @x {\nblock @A:\n  halt\nblock @A:\n  halt\n}",
       "duplicate block"},
      {"block @A:\n halt", "expected 'func'"},
      // Register ids past MaxRegId, each as a definition and as a source:
      // one that wraps to r1 in 32 bits, the invalid-register sentinel,
      // one that would size a 32 GB register file, and the first id past
      // the cap.
      {"func @x {\nblock @A:\n  r4294967297 = add(r1, 7)\n  halt\n}",
       "out of range in 'r4294967297'"},
      {"func @x {\nblock @A:\n  r1 = add(r4294967297, 7)\n  halt\n}",
       "out of range in 'r4294967297'"},
      {"func @x {\nblock @A:\n  r4294967295 = add(r1, 7)\n  halt\n}",
       "out of range in 'r4294967295'"},
      {"func @x {\nblock @A:\n  r1 = add(r4294967295, 7)\n  halt\n}",
       "out of range in 'r4294967295'"},
      {"func @x {\nblock @A:\n  r4000000000 = add(r1, 7)\n  halt\n}",
       "out of range in 'r4000000000'"},
      {"func @x {\nblock @A:\n  r1 = add(r4000000000, 7)\n  halt\n}",
       "out of range in 'r4000000000'"},
      {"func @x {\nblock @A:\n  p1048576:un = cmpp.eq(r1, 0)\n  halt\n}",
       "out of range in 'p1048576'"},
      {"func @x {\nblock @A:\n  r1 = add(r2, 7) if p1048576\n  halt\n}",
       "out of range in 'p1048576'"},
  };
  for (const Case &C : Cases) {
    ParseResult R = parseFunction(C.Src);
    if (std::string(C.ErrorFragment).empty()) {
      // Shape errors caught by the verifier instead.
      if (R) {
        EXPECT_FALSE(verifyFunction(*R.Func).empty()) << C.Src;
      }
      continue;
    }
    ASSERT_FALSE(R) << C.Src;
    EXPECT_NE(R.Error.find(C.ErrorFragment), std::string::npos)
        << "error was: " << R.Error;
  }
}

TEST(IRRoundTripTest, LargestRegisterIdRoundTrips) {
  const std::string Src = "func @x {\n  observable r1048575\nblock @A:\n"
                          "  r1048575 = add(r1048575, 1)\n  halt\n}\n";
  std::unique_ptr<Function> F = parseFunctionOrDie(Src);
  EXPECT_EQ(F->observableRegs()[0], Reg::gpr(MaxRegId));
  EXPECT_EQ(printFunction(*F), Src);
}

TEST(IRRoundTripTest, CommentsAndTrueGuardsAccepted) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @c {
block @A:            ; entry
  r1 = add(r2, 1) if T   ; explicit true guard
  r1 = add(r1, 1) if p0  ; p0 == T
  halt
}
)");
  EXPECT_TRUE(F->block(0).ops()[0].getGuard().isTruePred());
  EXPECT_TRUE(F->block(0).ops()[1].getGuard().isTruePred());
}

} // namespace
