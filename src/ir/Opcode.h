//===- ir/Opcode.h - Operation opcodes and traits ---------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opcodes of the PlayDoh-style EPIC IR and their static traits. The set
/// mirrors what the paper's code listings use: integer and floating-point
/// arithmetic, load/store, the two-target compare-to-predicate (cmpp), the
/// three-operation branch realization (cmpp + pbr + branch), and program
/// terminators. Trap exists purely as a self-checking canary: ICBM places it
/// at the end of fall-through-variation compensation blocks, where the
/// suitability theorem guarantees control never falls through.
///
//===----------------------------------------------------------------------===//

#ifndef IR_OPCODE_H
#define IR_OPCODE_H

#include "support/Error.h"

#include <cstdint>
#include <optional>

namespace cpr {

/// Functional-unit kind an operation executes on (machine resource class).
enum class UnitKind : uint8_t {
  Int,    ///< integer ALU ("I" in the paper's (I,F,M,B) tuples).
  Float,  ///< floating-point unit ("F").
  Mem,    ///< memory port ("M").
  Branch, ///< branch unit ("B").
};

/// Operation opcode.
enum class Opcode : uint8_t {
  // Integer arithmetic (Int unit).
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  Min,
  Max,
  /// Register/immediate move; destination may be any class, including PR.
  Mov,
  // Floating-point arithmetic (Float unit).
  FAdd,
  FSub,
  FMul,
  FDiv,
  // Memory (Mem unit). load: dst = mem[addr]; store: mem[addr] = value.
  Load,
  Store,
  /// Two-target compare-to-predicate (Int unit).
  Cmpp,
  /// Prepare-to-branch: writes a branch-target register from a label.
  Pbr,
  /// Conditional branch: takes when its source predicate is true; target is
  /// the BTR written by a dominating pbr in the same block.
  Branch,
  /// Terminates the program normally.
  Halt,
  /// Aborts execution; must never execute in a correct program.
  Trap,
  /// No operation (Int unit).
  Nop,
};

/// Number of opcodes (for table sizing).
inline constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::Nop) + 1;

/// Returns the lowercase mnemonic of \p Opc.
const char *opcodeName(Opcode Opc);

/// Parses a mnemonic; returns std::nullopt if unknown.
std::optional<Opcode> parseOpcode(const char *Name);

/// Returns the functional-unit kind \p Opc executes on.
UnitKind opcodeUnit(Opcode Opc);

/// Returns true for operations with side effects beyond their register
/// results (stores, branches, terminators). Side-effecting operations may
/// not be speculated above a branch that guards them.
bool opcodeHasSideEffects(Opcode Opc);

/// Returns true for control-transfer operations (branch, halt, trap).
bool opcodeIsControl(Opcode Opc);

/// Returns true for operations that access memory.
inline bool opcodeIsMemory(Opcode Opc) {
  return Opc == Opcode::Load || Opc == Opcode::Store;
}

/// Returns true for two-source integer arithmetic opcodes (Add..Max).
bool opcodeIsIntArith(Opcode Opc);

/// Returns true for two-source floating-point arithmetic opcodes.
bool opcodeIsFloatArith(Opcode Opc);

/// Evaluates integer arithmetic opcode \p Opc on \p A and \p B, as the
/// interpreter executes it and Simplify folds it. Results wrap in two's
/// complement: add, sub and mul wrap, INT64_MIN / -1 is INT64_MIN and
/// INT64_MIN % -1 is 0. Division and remainder by zero read as 0; shift
/// counts are taken mod 64 and shr is logical. Inline, so that a call
/// with a constant opcode compiles to that one operation.
inline int64_t evalIntArith(Opcode Opc, int64_t A, int64_t B) {
  auto U = [](int64_t V) { return static_cast<uint64_t>(V); };
  switch (Opc) {
  case Opcode::Add:
    return static_cast<int64_t>(U(A) + U(B));
  case Opcode::Sub:
    return static_cast<int64_t>(U(A) - U(B));
  case Opcode::Mul:
    return static_cast<int64_t>(U(A) * U(B));
  case Opcode::Div:
    // x / -1 is the wrapping negation; only INT64_MIN / -1 overflows.
    if (B == -1)
      return static_cast<int64_t>(0 - U(A));
    return B == 0 ? 0 : A / B;
  case Opcode::Rem:
    return B == 0 || B == -1 ? 0 : A % B;
  case Opcode::And:
    return A & B;
  case Opcode::Or:
    return A | B;
  case Opcode::Xor:
    return A ^ B;
  case Opcode::Shl:
    return static_cast<int64_t>(U(A) << (U(B) & 63));
  case Opcode::Shr:
    return static_cast<int64_t>(U(A) >> (U(B) & 63));
  case Opcode::Min:
    return A < B ? A : B;
  case Opcode::Max:
    return A > B ? A : B;
  default:
    CPR_UNREACHABLE("not an integer arithmetic opcode");
  }
}

} // namespace cpr

#endif // IR_OPCODE_H
