//===- ir/Operation.h - Predicated EPIC operations --------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single predicated PlayDoh-style operation. Every operation carries a
/// guard predicate register (p0 = "if T" for unpredicated code). Compare
/// operations (cmpp) have up to two predicate destinations, each with an
/// action specifier (Table 1 of the paper); all other operations have plain
/// destinations. Memory operations carry an alias class: two memory
/// operations with different nonzero alias classes are known independent,
/// which is how workload builders communicate the memory disambiguation the
/// paper's separability discussion depends on.
///
//===----------------------------------------------------------------------===//

#ifndef IR_OPERATION_H
#define IR_OPERATION_H

#include "ir/CmppAction.h"
#include "ir/CompareCond.h"
#include "ir/Opcode.h"
#include "ir/Operand.h"
#include "ir/Register.h"

#include <cassert>
#include <string>
#include <vector>

namespace cpr {

/// Unique (per Function) operation identifier. Ids survive code motion, so
/// profile data keyed by id remains valid across transformation.
using OpId = uint32_t;

/// An invalid operation id.
inline constexpr OpId InvalidOpId = 0;

/// One destination of an operation. For cmpp destinations \c Act selects
/// the Table 1 action; for all other operations \c Act is None.
struct DefSlot {
  Reg R;
  CmppAction Act = CmppAction::None;

  bool operator==(const DefSlot &O) const { return R == O.R && Act == O.Act; }
};

/// A single predicated operation.
class Operation {
public:
  Operation() = default;
  Operation(OpId Id, Opcode Opc) : Id(Id), Opc(Opc) {}

  OpId getId() const { return Id; }
  void setId(OpId NewId) { Id = NewId; }

  Opcode getOpcode() const { return Opc; }

  /// The guard predicate; p0 means "always execute" ("if T").
  Reg getGuard() const { return Guard; }
  void setGuard(Reg G) {
    assert(G.isPred() && "guard must be a predicate register");
    Guard = G;
  }

  const std::vector<DefSlot> &defs() const { return Defs; }
  std::vector<DefSlot> &defs() { return Defs; }
  const std::vector<Operand> &srcs() const { return Srcs; }
  std::vector<Operand> &srcs() { return Srcs; }

  void addDef(Reg R, CmppAction Act = CmppAction::None) {
    Defs.push_back(DefSlot{R, Act});
  }
  void addSrc(Operand O) { Srcs.push_back(O); }

  CompareCond getCond() const { return Cond; }
  void setCond(CompareCond C) { Cond = C; }

  /// Alias class of a memory operation. Class 0 conservatively aliases
  /// everything; two different nonzero classes never alias.
  uint8_t getAliasClass() const { return AliasClass; }
  void setAliasClass(uint8_t AC) { AliasClass = AC; }

  /// True when the guard was installed by FRP conversion on an operation
  /// whose execution condition was purely positional (guard T, below a
  /// branch). Promoting such a guard back to T faithfully mirrors the
  /// original code (paper Section 6), so predicate speculation may do it
  /// without a liveness proof.
  bool isFrpGuard() const { return FrpGuard; }
  void setFrpGuard(bool V) { FrpGuard = V; }

  bool isCmpp() const { return Opc == Opcode::Cmpp; }
  bool isBranch() const { return Opc == Opcode::Branch; }
  bool isLoad() const { return Opc == Opcode::Load; }
  bool isStore() const { return Opc == Opcode::Store; }

  /// Returns true for operations that terminate or may transfer control.
  bool isControl() const { return opcodeIsControl(Opc); }

  /// Returns true for operations with side effects (stores, control).
  bool hasSideEffects() const { return opcodeHasSideEffects(Opc); }

  /// For a Branch: the predicate register whose truth makes it take.
  Reg branchPred() const {
    assert(isBranch() && Srcs.size() == 2 && Srcs[0].isReg());
    return Srcs[0].getReg();
  }

  /// For a Branch: the branch-target register operand.
  Reg branchTargetReg() const {
    assert(isBranch() && Srcs.size() == 2 && Srcs[1].isReg());
    return Srcs[1].getReg();
  }

  /// For a Pbr: the target block label.
  BlockId pbrTarget() const {
    assert(Opc == Opcode::Pbr && Srcs.size() == 1 && Srcs[0].isLabel());
    return Srcs[0].getLabel();
  }

  /// Returns true if \p R appears among the destinations.
  bool definesReg(Reg R) const {
    for (const DefSlot &D : Defs)
      if (D.R == R)
        return true;
    return false;
  }

  /// Returns true if \p R appears among the sources or as the guard.
  bool readsReg(Reg R) const {
    if (Guard == R)
      return true;
    for (const Operand &S : Srcs)
      if (S.isReg() && S.getReg() == R)
        return true;
    return false;
  }

  /// Field-by-field equality, id included.
  bool operator==(const Operation &) const = default;

private:
  OpId Id = InvalidOpId;
  Opcode Opc = Opcode::Nop;
  Reg Guard = Reg::truePred();
  std::vector<DefSlot> Defs;
  std::vector<Operand> Srcs;
  CompareCond Cond = CompareCond::None;
  uint8_t AliasClass = 0;
  bool FrpGuard = false;
};

} // namespace cpr

#endif // IR_OPERATION_H
