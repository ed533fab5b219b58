//===- analysis/CFG.cpp - Control-flow queries over superblocks -----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"

#include "support/Error.h"

#include <algorithm>

using namespace cpr;

BlockId cpr::resolveBranchTarget(const Block &B, size_t OpIdx) {
  const Operation &Br = B.ops()[OpIdx];
  assert(Br.isBranch() && "not a branch");
  int PbrIdx = B.lastDefBefore(Br.branchTargetReg(), OpIdx);
  if (PbrIdx < 0)
    return InvalidBlockId;
  const Operation &Pbr = B.ops()[static_cast<size_t>(PbrIdx)];
  if (Pbr.getOpcode() != Opcode::Pbr)
    return InvalidBlockId;
  return Pbr.pbrTarget();
}

std::vector<BlockExit> cpr::blockExits(const Function &F, size_t LayoutIdx) {
  const Block &B = F.block(LayoutIdx);
  std::vector<BlockExit> Exits;
  bool FallsThrough = true;
  for (size_t I = 0, E = B.size(); I != E; ++I) {
    const Operation &Op = B.ops()[I];
    if (Op.isBranch()) {
      Exits.push_back(BlockExit{static_cast<int>(I),
                                resolveBranchTarget(B, I)});
      continue;
    }
    if (Op.getOpcode() == Opcode::Halt || Op.getOpcode() == Opcode::Trap) {
      Exits.push_back(BlockExit{static_cast<int>(I), InvalidBlockId});
      // Operations after an unguarded halt/trap are unreachable.
      if (Op.getGuard().isTruePred()) {
        FallsThrough = false;
        break;
      }
    }
  }
  if (FallsThrough) {
    BlockId Next = LayoutIdx + 1 < F.numBlocks()
                       ? F.block(LayoutIdx + 1).getId()
                       : InvalidBlockId;
    Exits.push_back(BlockExit{-1, Next});
  }
  return Exits;
}

std::vector<int> cpr::layoutIndexMap(const Function &F) {
  std::vector<int> Map;
  for (size_t L = 0, E = F.numBlocks(); L != E; ++L) {
    BlockId Id = F.block(L).getId();
    if (Id >= Map.size())
      Map.resize(static_cast<size_t>(Id) + 1, -1);
    Map[Id] = static_cast<int>(L);
  }
  return Map;
}

std::vector<BlockId> cpr::blockSuccessors(const Function &F,
                                          size_t LayoutIdx) {
  std::vector<BlockId> Succs;
  for (const BlockExit &E : blockExits(F, LayoutIdx)) {
    if (E.Target == InvalidBlockId)
      continue;
    if (std::find(Succs.begin(), Succs.end(), E.Target) == Succs.end())
      Succs.push_back(E.Target);
  }
  return Succs;
}
