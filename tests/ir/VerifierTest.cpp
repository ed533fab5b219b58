//===- tests/ir/VerifierTest.cpp - Verifier rejection tests ---------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

/// Parses (which must succeed) and expects a verifier complaint containing
/// \p Fragment.
void expectInvalid(const std::string &Src, const std::string &Fragment) {
  ParseResult R = parseFunction(Src);
  ASSERT_TRUE(R) << "parse failed: " << R.Error;
  std::vector<std::string> Errors = verifyFunction(*R.Func);
  ASSERT_FALSE(Errors.empty()) << "expected a verification failure";
  bool Found = false;
  for (const std::string &E : Errors)
    if (E.find(Fragment) != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found) << "no error mentions '" << Fragment << "'; first is: "
                     << Errors.front();
}

TEST(VerifierTest, AcceptsWellFormedFunction) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @good {
block @A:
  r1 = mov(5)
  p1:un, p2:uc = cmpp.lt(r1, 10)
  b1 = pbr(@B)
  branch(p1, b1)
  halt
block @B:
  halt
}
)");
  EXPECT_TRUE(verifyFunction(*F).empty());
}

TEST(VerifierTest, BranchWithoutPbr) {
  expectInvalid(R"(
func @bad {
block @A:
  p1:un = cmpp.lt(r1, 10)
  branch(p1, b1)
  halt
}
)",
                "no preparing pbr");
}

TEST(VerifierTest, CmppWritingTruePredicate) {
  expectInvalid(R"(
func @bad {
block @A:
  p0:un = cmpp.lt(r1, 10)
  halt
}
)",
                "hardwired true");
}

TEST(VerifierTest, MovWritingTruePredicate) {
  expectInvalid(R"(
func @bad {
block @A:
  p0 = mov(1) if p1
  halt
}
)",
                "hardwired true");
}

TEST(VerifierTest, CmppDestinationWithoutAction) {
  expectInvalid(R"(
func @bad {
block @A:
  p1 = cmpp.lt(r1, 10)
  halt
}
)",
                "action specifier");
}

TEST(VerifierTest, ActionOnNonCmpp) {
  expectInvalid(R"(
func @bad {
block @A:
  r1:un = add(r2, r3)
  halt
}
)",
                "carries an action");
}

TEST(VerifierTest, MovToPredicateWithBadImmediate) {
  expectInvalid(R"(
func @bad {
block @A:
  p1 = mov(7)
  halt
}
)",
                "mov to predicate");
}

TEST(VerifierTest, ArithWithWrongClass) {
  expectInvalid(R"(
func @bad {
block @A:
  r1 = add(f2, 1)
  halt
}
)",
                "wrong kind");
}

TEST(VerifierTest, StoreShape) {
  expectInvalid(R"(
func @bad {
block @A:
  store(r1)
  halt
}
)",
                "store needs");
}

TEST(VerifierTest, GuardMustBePredicate) {
  // The parser rejects non-PR guards itself; build the broken op by hand.
  Function F("bad");
  Block &A = F.addBlock("A");
  Operation Op = F.makeOp(Opcode::Nop);
  // Bypass setGuard's assertion by constructing through the parser path is
  // impossible; instead check the adjacent invariant: alias class on a
  // non-memory operation.
  Op.setAliasClass(3);
  A.ops().push_back(std::move(Op));
  std::vector<std::string> Errors = verifyFunction(F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors.front().find("alias class"), std::string::npos);
}

TEST(VerifierTest, DuplicateOpIds) {
  // One id on three operations across two blocks, an operation without an
  // id, and another error in between: every later holder of the id is
  // reported, in layout order among the other errors.
  Function F("bad");
  Block &A = F.addBlock("A");
  Block &B = F.addBlock("B");
  Operation First = F.makeOp(Opcode::Nop);
  const OpId Id = First.getId();
  A.ops().push_back(std::move(First));
  A.ops().push_back(Operation(InvalidOpId, Opcode::Nop));
  A.ops().push_back(F.makeOp(Opcode::Mov)); // no destination or source
  A.ops().push_back(Operation(Id, Opcode::Nop));
  B.ops().push_back(Operation(Id, Opcode::Halt));
  EXPECT_EQ(verifyFunction(F),
            (std::vector<std::string>{
                "operation has invalid id in block @A: nop",
                "mov needs one destination and one source in block @A: "
                "mov()",
                "duplicate operation id in block @A: nop",
                "duplicate operation id in block @B: halt",
            }));
}

TEST(VerifierTest, EmptyFunction) {
  Function F("empty");
  std::vector<std::string> Errors = verifyFunction(F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors.front().find("no blocks"), std::string::npos);
}

TEST(VerifierTest, ObservableMustBeGpr) {
  Function F("bad");
  Block &A = F.addBlock("A");
  A.ops().push_back(F.makeOp(Opcode::Halt));
  F.observableRegs().push_back(Reg::pred(3));
  std::vector<std::string> Errors = verifyFunction(F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors.front().find("observable"), std::string::npos);
}

} // namespace
