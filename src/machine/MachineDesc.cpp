//===- machine/MachineDesc.cpp - EPIC machine models ----------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "machine/MachineDesc.h"

#include "support/Error.h"

#include <vector>

using namespace cpr;

MachineDesc::MachineDesc(std::string Name, int I, int F, int M, int B,
                         bool Sequential, int BranchLatency)
    : Name(std::move(Name)), Width{I, F, M, B}, Sequential(Sequential),
      BranchLatency(BranchLatency), MispredictPenalty(BranchLatency + 4),
      BTBMissPenalty(BranchLatency + 1) {
  assert(I >= 1 && F >= 0 && M >= 1 && B >= 1 && "degenerate machine");
  assert(BranchLatency >= 1 && "branch latency must be at least 1");
}

MachineDesc MachineDesc::sequential(int BranchLatency) {
  return MachineDesc("sequential", 1, 1, 1, 1, /*Sequential=*/true,
                     BranchLatency);
}

MachineDesc MachineDesc::narrow(int BranchLatency) {
  return MachineDesc("narrow", 2, 1, 1, 1, /*Sequential=*/false,
                     BranchLatency);
}

MachineDesc MachineDesc::medium(int BranchLatency) {
  return MachineDesc("medium", 4, 2, 2, 1, /*Sequential=*/false,
                     BranchLatency);
}

MachineDesc MachineDesc::wide(int BranchLatency) {
  return MachineDesc("wide", 8, 4, 4, 2, /*Sequential=*/false, BranchLatency);
}

MachineDesc MachineDesc::infinite(int BranchLatency) {
  return MachineDesc("infinite", 75, 25, 25, 25, /*Sequential=*/false,
                     BranchLatency);
}

std::vector<MachineDesc> MachineDesc::paperModels(int BranchLatency) {
  std::vector<MachineDesc> Models;
  Models.push_back(sequential(BranchLatency));
  Models.push_back(narrow(BranchLatency));
  Models.push_back(medium(BranchLatency));
  Models.push_back(wide(BranchLatency));
  Models.push_back(infinite(BranchLatency));
  return Models;
}

const MachineDesc *MachineDesc::findPaperModel(const std::string &Name) {
  static const std::vector<MachineDesc> Models = paperModels();
  for (const MachineDesc &M : Models)
    if (M.getName() == Name)
      return &M;
  return nullptr;
}

int MachineDesc::issueWidth() const {
  if (Sequential)
    return 1;
  int W = 0;
  for (int C : Width)
    W += C;
  return W;
}

int MachineDesc::latency(const Operation &Op) const {
  switch (Op.getOpcode()) {
  case Opcode::Mul:
    return 3; // integer multiply - 3 (paper section 7)
  case Opcode::Div:
  case Opcode::Rem:
    return 8; // integer divide - 8
  case Opcode::FAdd:
  case Opcode::FSub:
    return 3; // simple floating point - 3
  case Opcode::FMul:
    return 3; // floating-point multiply - 3
  case Opcode::FDiv:
    return 8; // floating-point divide - 8
  case Opcode::Load:
    return 2; // memory load - 2
  case Opcode::Store:
    return 1; // memory store - 1
  case Opcode::Branch:
    return BranchLatency;
  default:
    return 1; // simple integer (incl. cmpp, mov, pbr) - 1
  }
}
