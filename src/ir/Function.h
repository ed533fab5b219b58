//===- ir/Function.h - Blocks and functions ---------------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Blocks and functions of the EPIC IR.
///
/// A Block is a *linear code region*, not a classic basic block: it may
/// contain interior (side-exit) branches, exactly like the superblock
/// listings in the paper's Figure 6. Control enters at the top and leaves
/// either through a taken branch or by falling through to the next block in
/// function layout order. A superblock/hyperblock -- the input region of
/// ICBM -- is therefore simply one Block.
///
//===----------------------------------------------------------------------===//

#ifndef IR_FUNCTION_H
#define IR_FUNCTION_H

#include "ir/Operation.h"

#include <memory>
#include <string>
#include <vector>

namespace cpr {

/// A linear code region (superblock-style: interior exit branches allowed).
class Block {
public:
  Block(BlockId Id, std::string Name) : Id(Id), Name(std::move(Name)) {}

  BlockId getId() const { return Id; }
  const std::string &getName() const { return Name; }

  std::vector<Operation> &ops() { return Ops; }
  const std::vector<Operation> &ops() const { return Ops; }

  bool empty() const { return Ops.empty(); }
  size_t size() const { return Ops.size(); }

  /// Marks blocks created by ICBM to hold off-trace code.
  bool isCompensation() const { return Compensation; }
  void setCompensation(bool V) { Compensation = V; }

  /// Returns the index of the operation with \p Id, or -1 if absent.
  int indexOfOp(OpId Id) const;

  /// Returns the index of the last operation before \p Index (exclusive)
  /// that defines register \p R, or -1 if none. Used to resolve a branch's
  /// BTR operand to its preparing pbr.
  int lastDefBefore(Reg R, size_t Index) const;

private:
  BlockId Id;
  std::string Name;
  std::vector<Operation> Ops;
  bool Compensation = false;
};

/// A function: an ordered list of blocks plus register/op-id allocators.
/// Block order is the code layout: control falls through block boundaries.
class Function {
public:
  explicit Function(std::string Name) : Name(std::move(Name)) {}

  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  const std::string &getName() const { return Name; }

  /// Appends a new block named \p BlockName and returns it.
  Block &addBlock(const std::string &BlockName);

  /// Inserts a new block at layout position \p LayoutIndex.
  Block &insertBlock(size_t LayoutIndex, const std::string &BlockName);

  size_t numBlocks() const { return Blocks.size(); }
  Block &block(size_t LayoutIndex) { return *Blocks[LayoutIndex]; }
  const Block &block(size_t LayoutIndex) const { return *Blocks[LayoutIndex]; }

  /// Returns the block with \p Id, or nullptr.
  Block *blockById(BlockId Id);
  const Block *blockById(BlockId Id) const;

  /// Returns the block named \p BlockName, or nullptr.
  Block *blockByName(const std::string &BlockName);

  /// Returns the layout index of block \p Id, or -1.
  int layoutIndex(BlockId Id) const;

  /// Removes the block with \p Id from the layout. Branches targeting it
  /// are left dangling (the verifier rejects them); callers such as the
  /// fuzzer's reducer re-verify after every removal. Returns false if no
  /// such block exists. The entry block (layout index 0) is removable
  /// like any other; the next block becomes the entry.
  bool removeBlock(BlockId Id);

  /// The entry block (layout index 0).
  Block &entry() { return *Blocks.front(); }
  const Block &entry() const { return *Blocks.front(); }

  /// Allocates a fresh virtual register of class \p RC.
  Reg newReg(RegClass RC);

  /// Notes that register \p R is in use so newReg never returns it. The
  /// parser calls this for every register it reads.
  void reserveRegId(Reg R);

  /// Allocates a fresh operation id.
  OpId newOpId() { return NextOpId++; }

  /// Creates an operation with a fresh id (not yet placed in a block).
  Operation makeOp(Opcode Opc) { return Operation(newOpId(), Opc); }

  /// Registers observed at Halt for equivalence checking and as DCE roots.
  std::vector<Reg> &observableRegs() { return Observable; }
  const std::vector<Reg> &observableRegs() const { return Observable; }

  /// Total static operation count across all blocks.
  size_t totalOps() const;

  /// Finds the operation with id \p Id anywhere in the function.
  /// Returns {block layout index, op index} or {-1, -1}.
  std::pair<int, int> findOp(OpId Id) const;

  /// Deep copy, preserving block ids, operation ids, and allocator state.
  std::unique_ptr<Function> clone() const;

private:
  std::string Name;
  std::vector<std::unique_ptr<Block>> Blocks;
  BlockId NextBlockId = 0;
  uint32_t NextRegId[NumRegClasses] = {1, 1, 1, 1}; // p0 reserved = true.
  OpId NextOpId = 1;
  std::vector<Reg> Observable;
};

} // namespace cpr

#endif // IR_FUNCTION_H
