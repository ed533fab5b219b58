//===- tests/ir/IRApiTest.cpp - Core IR API tests -------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

TEST(RegTest, ClassesAndNames) {
  EXPECT_EQ(Reg::gpr(21).str(), "r21");
  EXPECT_EQ(Reg::fpr(3).str(), "f3");
  EXPECT_EQ(Reg::pred(61).str(), "p61");
  EXPECT_EQ(Reg::btr(41).str(), "b41");
  EXPECT_EQ(Reg::truePred().str(), "T");
  EXPECT_TRUE(Reg::truePred().isTruePred());
  EXPECT_FALSE(Reg::pred(1).isTruePred());
  EXPECT_NE(Reg::gpr(1), Reg::fpr(1));
  EXPECT_EQ(Reg::gpr(1), Reg(RegClass::GPR, 1));
}

TEST(OperandTest, Kinds) {
  Operand R = Operand::reg(Reg::gpr(5));
  Operand I = Operand::imm(-7);
  Operand L = Operand::label(3);
  EXPECT_TRUE(R.isReg());
  EXPECT_TRUE(I.isImm());
  EXPECT_TRUE(L.isLabel());
  EXPECT_EQ(I.getImm(), -7);
  EXPECT_EQ(L.getLabel(), 3u);
  EXPECT_EQ(R, Operand::reg(Reg::gpr(5)));
  EXPECT_NE(R, Operand::reg(Reg::gpr(6)));
  EXPECT_NE(I, Operand::imm(7));
}

TEST(OperationTest, ReadsAndDefines) {
  Function F("f");
  Operation Op = F.makeOp(Opcode::Add);
  Op.setGuard(Reg::pred(2));
  Op.addDef(Reg::gpr(1));
  Op.addSrc(Operand::reg(Reg::gpr(3)));
  Op.addSrc(Operand::imm(4));
  EXPECT_TRUE(Op.definesReg(Reg::gpr(1)));
  EXPECT_FALSE(Op.definesReg(Reg::gpr(3)));
  EXPECT_TRUE(Op.readsReg(Reg::gpr(3)));
  EXPECT_TRUE(Op.readsReg(Reg::pred(2))); // the guard counts as a read
  EXPECT_FALSE(Op.readsReg(Reg::gpr(1)));
}

TEST(FunctionTest, RegisterAllocationAvoidsCollisions) {
  Function F("f");
  Reg A = F.newReg(RegClass::GPR);
  Reg B = F.newReg(RegClass::GPR);
  Reg P = F.newReg(RegClass::PR);
  EXPECT_NE(A, B);
  EXPECT_NE(P.getId(), 0u) << "p0 is reserved for the true predicate";
  F.reserveRegId(Reg::gpr(100));
  EXPECT_GT(F.newReg(RegClass::GPR).getId(), 100u);
}

TEST(FunctionTest, BlocksAndLayout) {
  Function F("f");
  Block &A = F.addBlock("A");
  Block &B = F.addBlock("B");
  Block &Mid = F.insertBlock(1, "Mid");
  EXPECT_EQ(F.numBlocks(), 3u);
  EXPECT_EQ(&F.block(0), &A);
  EXPECT_EQ(&F.block(1), &Mid);
  EXPECT_EQ(&F.block(2), &B);
  EXPECT_EQ(F.layoutIndex(B.getId()), 2);
  EXPECT_EQ(F.blockByName("Mid"), &Mid);
  EXPECT_EQ(F.blockById(A.getId()), &A);
  EXPECT_EQ(F.blockByName("nope"), nullptr);
}

TEST(FunctionTest, CloneIsDeepAndIdPreserving) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r5
block @A:
  r5 = mov(1)
  p1:un = cmpp.eq(r5, 1)
  b1 = pbr(@B)
  branch(p1, b1)
  halt
block @B:
  halt
}
)");
  std::unique_ptr<Function> C = F->clone();
  EXPECT_EQ(printFunction(*F), printFunction(*C));
  // Ids preserved.
  EXPECT_EQ(F->block(0).ops()[0].getId(), C->block(0).ops()[0].getId());
  // Mutating the clone leaves the original untouched.
  C->block(0).ops()[0].srcs()[0] = Operand::imm(9);
  EXPECT_NE(printFunction(*F), printFunction(*C));
  // Fresh allocations in the clone do not collide with parsed registers.
  EXPECT_GT(C->newReg(RegClass::GPR).getId(), 5u);
}

TEST(FunctionTest, FindOpAndTotals) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  r1 = mov(1)
  halt
block @B:
  r2 = mov(2)
  halt
}
)");
  EXPECT_EQ(F->totalOps(), 4u);
  OpId Second = F->block(1).ops()[0].getId();
  auto [BI, OI] = F->findOp(Second);
  EXPECT_EQ(BI, 1);
  EXPECT_EQ(OI, 0);
  auto [NBI, NOI] = F->findOp(99999);
  EXPECT_EQ(NBI, -1);
  EXPECT_EQ(NOI, -1);
}

TEST(CFGTest, ResolvesBranchTargetsAndExits) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  b1 = pbr(@C)
  p1:un = cmpp.eq(r1, 0)
  branch(p1, b1)
  halt
block @B:
  halt
block @C:
  halt
}
)");
  const Block &A = F->block(0);
  EXPECT_EQ(resolveBranchTarget(A, 2), F->blockByName("C")->getId());

  std::vector<BlockExit> Exits = blockExits(*F, 0);
  // Branch exit + halt exit; the unguarded halt stops fall-through.
  ASSERT_EQ(Exits.size(), 2u);
  EXPECT_EQ(Exits[0].OpIdx, 2);
  EXPECT_EQ(Exits[0].Target, F->blockByName("C")->getId());
  EXPECT_EQ(Exits[1].Target, InvalidBlockId);

  std::vector<BlockId> Succs = blockSuccessors(*F, 0);
  ASSERT_EQ(Succs.size(), 1u);
  EXPECT_EQ(Succs[0], F->blockByName("C")->getId());
}

TEST(CFGTest, FallThroughExit) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  r1 = mov(1)
block @B:
  halt
}
)");
  std::vector<BlockExit> Exits = blockExits(*F, 0);
  ASSERT_EQ(Exits.size(), 1u);
  EXPECT_TRUE(Exits[0].isFallThrough());
  EXPECT_EQ(Exits[0].Target, F->block(1).getId());
}

TEST(CFGTest, LayoutIndexMapAgreesWithLayoutIndex) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  r1 = mov(1)
block @B:
  r1 = mov(2)
block @C:
  halt
}
)");
  BlockId Removed = F->block(1).getId();
  ASSERT_TRUE(F->removeBlock(Removed));
  std::vector<int> Map = layoutIndexMap(*F);
  for (BlockId Id = 0; Id < Map.size(); ++Id)
    EXPECT_EQ(Map[Id], F->layoutIndex(Id)) << "block id " << Id;
  EXPECT_EQ(Map[Removed], -1);
  EXPECT_EQ(Map.size(), static_cast<size_t>(F->block(1).getId()) + 1);
}

TEST(CFGTest, GuardedHaltDoesNotStopFallThrough) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  halt if p1
block @B:
  halt
}
)");
  std::vector<BlockExit> Exits = blockExits(*F, 0);
  ASSERT_EQ(Exits.size(), 2u);
  EXPECT_EQ(Exits[0].Target, InvalidBlockId); // the guarded halt
  EXPECT_TRUE(Exits[1].isFallThrough());
}

} // namespace
