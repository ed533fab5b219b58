//===- ir/Register.h - Virtual register model -------------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Virtual registers for the PlayDoh-style EPIC IR. Four register classes
/// exist, mirroring the HPL PlayDoh architecture specification the paper
/// builds on: general-purpose (GPR), floating-point (FPR), one-bit predicate
/// (PR), and branch-target (BTR) registers. Predicate register p0 is
/// hardwired to true and serves as the "if T" guard of unpredicated
/// operations.
///
//===----------------------------------------------------------------------===//

#ifndef IR_REGISTER_H
#define IR_REGISTER_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace cpr {

/// The register classes of the PlayDoh-style machine.
enum class RegClass : uint8_t {
  GPR, ///< 64-bit integer register ("r").
  FPR, ///< floating-point register ("f").
  PR,  ///< one-bit predicate register ("p"); p0 is hardwired true.
  BTR, ///< branch-target register ("b"), written by prepare-to-branch.
};

/// Number of distinct register classes.
inline constexpr unsigned NumRegClasses = 4;

/// Returns the printable single-letter prefix for \p RC ("r", "f", "p", "b").
const char *regClassPrefix(RegClass RC);

/// The largest register id a textual register name may carry. The cap
/// keeps names clear of the invalid-register sentinel and bounds each
/// register class of an interpreter run at 2^20 slots.
inline constexpr uint32_t MaxRegId = (1u << 20) - 1;

/// Parses the decimal id of a register name (the text after the class
/// letter). Returns false unless \p Digits is one or more decimal digits
/// whose value is at most MaxRegId.
bool parseRegId(std::string_view Digits, uint32_t &Id);

/// A virtual register: a class plus an id. Ids are unique per class within a
/// Function. Value type; freely copyable.
class Reg {
public:
  Reg() : Class(RegClass::GPR), Id(~0u) {}
  Reg(RegClass RC, uint32_t Id) : Class(RC), Id(Id) {}

  static Reg gpr(uint32_t Id) { return Reg(RegClass::GPR, Id); }
  static Reg fpr(uint32_t Id) { return Reg(RegClass::FPR, Id); }
  static Reg pred(uint32_t Id) { return Reg(RegClass::PR, Id); }
  static Reg btr(uint32_t Id) { return Reg(RegClass::BTR, Id); }

  /// The hardwired always-true predicate register p0.
  static Reg truePred() { return pred(0); }

  RegClass getClass() const { return Class; }
  uint32_t getId() const { return Id; }

  bool isValid() const { return Id != ~0u; }
  bool isPred() const { return Class == RegClass::PR; }

  /// Returns true if this is the hardwired true predicate p0.
  bool isTruePred() const { return Class == RegClass::PR && Id == 0; }

  bool operator==(const Reg &O) const { return Class == O.Class && Id == O.Id; }
  bool operator!=(const Reg &O) const { return !(*this == O); }
  bool operator<(const Reg &O) const {
    if (Class != O.Class)
      return Class < O.Class;
    return Id < O.Id;
  }

  /// Returns the printable name, e.g. "r21", "p61", or "T" for p0.
  std::string str() const;

private:
  RegClass Class;
  uint32_t Id;
};

} // namespace cpr

namespace std {
template <> struct hash<cpr::Reg> {
  size_t operator()(const cpr::Reg &R) const {
    return (static_cast<size_t>(R.getClass()) << 32) ^ R.getId();
  }
};
} // namespace std

#endif // IR_REGISTER_H
