//===- ir/Function.cpp - Blocks and functions -----------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include "support/Error.h"

using namespace cpr;

int Block::indexOfOp(OpId OpIdToFind) const {
  for (size_t I = 0, E = Ops.size(); I != E; ++I)
    if (Ops[I].getId() == OpIdToFind)
      return static_cast<int>(I);
  return -1;
}

int Block::lastDefBefore(Reg R, size_t Index) const {
  assert(Index <= Ops.size() && "index out of range");
  for (size_t I = Index; I-- > 0;)
    if (Ops[I].definesReg(R))
      return static_cast<int>(I);
  return -1;
}

Block &Function::addBlock(const std::string &BlockName) {
  Blocks.push_back(std::make_unique<Block>(NextBlockId++, BlockName));
  return *Blocks.back();
}

Block &Function::insertBlock(size_t LayoutIndex, const std::string &BlockName) {
  assert(LayoutIndex <= Blocks.size() && "layout index out of range");
  auto It = Blocks.begin() + static_cast<ptrdiff_t>(LayoutIndex);
  It = Blocks.insert(It, std::make_unique<Block>(NextBlockId++, BlockName));
  return **It;
}

Block *Function::blockById(BlockId Id) {
  for (auto &B : Blocks)
    if (B->getId() == Id)
      return B.get();
  return nullptr;
}

const Block *Function::blockById(BlockId Id) const {
  for (const auto &B : Blocks)
    if (B->getId() == Id)
      return B.get();
  return nullptr;
}

Block *Function::blockByName(const std::string &BlockName) {
  for (auto &B : Blocks)
    if (B->getName() == BlockName)
      return B.get();
  return nullptr;
}

bool Function::removeBlock(BlockId Id) {
  for (size_t I = 0, E = Blocks.size(); I != E; ++I) {
    if (Blocks[I]->getId() == Id) {
      Blocks.erase(Blocks.begin() + static_cast<ptrdiff_t>(I));
      return true;
    }
  }
  return false;
}

int Function::layoutIndex(BlockId Id) const {
  for (size_t I = 0, E = Blocks.size(); I != E; ++I)
    if (Blocks[I]->getId() == Id)
      return static_cast<int>(I);
  return -1;
}

Reg Function::newReg(RegClass RC) {
  unsigned Idx = static_cast<unsigned>(RC);
  return Reg(RC, NextRegId[Idx]++);
}

void Function::reserveRegId(Reg R) {
  unsigned Idx = static_cast<unsigned>(R.getClass());
  if (R.getId() + 1 > NextRegId[Idx])
    NextRegId[Idx] = R.getId() + 1;
}

size_t Function::totalOps() const {
  size_t N = 0;
  for (const auto &B : Blocks)
    N += B->size();
  return N;
}

std::unique_ptr<Function> Function::clone() const {
  auto Copy = std::make_unique<Function>(Name);
  for (const auto &B : Blocks) {
    // Recreate blocks with identical ids by steering the allocator.
    Copy->NextBlockId = B->getId();
    Block &NB = Copy->addBlock(B->getName());
    NB.setCompensation(B->isCompensation());
    NB.ops() = B->ops();
  }
  Copy->NextBlockId = NextBlockId;
  for (unsigned I = 0; I < NumRegClasses; ++I)
    Copy->NextRegId[I] = NextRegId[I];
  Copy->NextOpId = NextOpId;
  Copy->Observable = Observable;
  return Copy;
}

std::pair<int, int> Function::findOp(OpId Id) const {
  for (size_t BI = 0, BE = Blocks.size(); BI != BE; ++BI) {
    int OI = Blocks[BI]->indexOfOp(Id);
    if (OI >= 0)
      return {static_cast<int>(BI), OI};
  }
  return {-1, -1};
}
