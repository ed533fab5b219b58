//===- tests/machine/MachineDescTest.cpp - Machine model tests ------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "machine/MachineDesc.h"

#include "ir/Function.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

Operation makeOp(Opcode Opc) { return Operation(1, Opc); }

TEST(MachineDescTest, PaperConfigurations) {
  // Section 7: narrow (2,1,1,1), medium (4,2,2,1), wide (8,4,4,2),
  // infinite (75,25,25,25); sequential issues one op of any type.
  MachineDesc Nar = MachineDesc::narrow();
  EXPECT_EQ(Nar.unitCount(UnitKind::Int), 2);
  EXPECT_EQ(Nar.unitCount(UnitKind::Float), 1);
  EXPECT_EQ(Nar.unitCount(UnitKind::Mem), 1);
  EXPECT_EQ(Nar.unitCount(UnitKind::Branch), 1);

  MachineDesc Med = MachineDesc::medium();
  EXPECT_EQ(Med.unitCount(UnitKind::Int), 4);
  EXPECT_EQ(Med.unitCount(UnitKind::Branch), 1);

  MachineDesc Wid = MachineDesc::wide();
  EXPECT_EQ(Wid.unitCount(UnitKind::Int), 8);
  EXPECT_EQ(Wid.unitCount(UnitKind::Branch), 2);

  MachineDesc Inf = MachineDesc::infinite();
  EXPECT_EQ(Inf.unitCount(UnitKind::Int), 75);
  EXPECT_EQ(Inf.unitCount(UnitKind::Branch), 25);

  EXPECT_TRUE(MachineDesc::sequential().isSequential());
  EXPECT_EQ(MachineDesc::sequential().issueWidth(), 1);
  EXPECT_FALSE(Med.isSequential());
  EXPECT_EQ(Med.issueWidth(), 4 + 2 + 2 + 1);
}

TEST(MachineDescTest, PaperLatencies) {
  // Section 7: simple integer 1, simple fp 3, load 2, store 1, multiply
  // 3, divide 8, branch latency 1.
  MachineDesc MD = MachineDesc::medium();
  EXPECT_EQ(MD.latency(makeOp(Opcode::Add)), 1);
  EXPECT_EQ(MD.latency(makeOp(Opcode::Xor)), 1);
  EXPECT_EQ(MD.latency(makeOp(Opcode::Mov)), 1);
  EXPECT_EQ(MD.latency(makeOp(Opcode::Cmpp)), 1);
  EXPECT_EQ(MD.latency(makeOp(Opcode::FAdd)), 3);
  EXPECT_EQ(MD.latency(makeOp(Opcode::FMul)), 3);
  EXPECT_EQ(MD.latency(makeOp(Opcode::FDiv)), 8);
  EXPECT_EQ(MD.latency(makeOp(Opcode::Load)), 2);
  EXPECT_EQ(MD.latency(makeOp(Opcode::Store)), 1);
  EXPECT_EQ(MD.latency(makeOp(Opcode::Mul)), 3);
  EXPECT_EQ(MD.latency(makeOp(Opcode::Div)), 8);
  EXPECT_EQ(MD.latency(makeOp(Opcode::Branch)), 1);
}

TEST(MachineDescTest, ConfigurableBranchLatency) {
  for (int Lat : {1, 2, 3, 5}) {
    MachineDesc MD = MachineDesc::medium(Lat);
    EXPECT_EQ(MD.branchLatency(), Lat);
    EXPECT_EQ(MD.latency(makeOp(Opcode::Branch)), Lat);
    // Non-branch latencies unaffected.
    EXPECT_EQ(MD.latency(makeOp(Opcode::Load)), 2);
  }
}

TEST(MachineDescTest, LatencyDependsOnlyOnOpcodeAndBranchLatency) {
  // The contract that lets one dependence graph per block serve every
  // machine of one branch latency (analysis/DepGraph.h, BlockGraphs).
  for (int Lat : {1, 2, 3}) {
    MachineDesc Custom("custom", 3, 1, 2, 1, /*Sequential=*/false, Lat);
    for (unsigned O = 0; O < NumOpcodes; ++O) {
      Operation Op = makeOp(static_cast<Opcode>(O));
      for (const MachineDesc &MD : MachineDesc::paperModels(Lat))
        EXPECT_EQ(MD.latency(Op), Custom.latency(Op))
            << MD.getName() << " " << opcodeName(Op.getOpcode());
    }
  }
}

TEST(MachineDescTest, PaperModelsOrder) {
  std::vector<MachineDesc> Models = MachineDesc::paperModels();
  ASSERT_EQ(Models.size(), 5u);
  EXPECT_EQ(Models[0].getName(), "sequential");
  EXPECT_EQ(Models[1].getName(), "narrow");
  EXPECT_EQ(Models[2].getName(), "medium");
  EXPECT_EQ(Models[3].getName(), "wide");
  EXPECT_EQ(Models[4].getName(), "infinite");
}

TEST(MachineDescTest, UnitAssignment) {
  EXPECT_EQ(opcodeUnit(Opcode::Add), UnitKind::Int);
  EXPECT_EQ(opcodeUnit(Opcode::Cmpp), UnitKind::Int);
  EXPECT_EQ(opcodeUnit(Opcode::FAdd), UnitKind::Float);
  EXPECT_EQ(opcodeUnit(Opcode::Load), UnitKind::Mem);
  EXPECT_EQ(opcodeUnit(Opcode::Store), UnitKind::Mem);
  EXPECT_EQ(opcodeUnit(Opcode::Pbr), UnitKind::Branch);
  EXPECT_EQ(opcodeUnit(Opcode::Branch), UnitKind::Branch);
}

} // namespace
