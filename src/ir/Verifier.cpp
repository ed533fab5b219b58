//===- ir/Verifier.cpp - Structural IR validity checks --------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/IRPrinter.h"
#include "support/Diagnostic.h"
#include "support/Error.h"

#include <algorithm>
#include <cstdint>

using namespace cpr;

namespace {

/// Collects violations for one function.
class VerifierImpl {
public:
  explicit VerifierImpl(const Function &F) : F(F) {}

  std::vector<std::string> run() {
    if (F.numBlocks() == 0) {
      error(nullptr, nullptr, "function has no blocks");
      return std::move(Errors);
    }
    std::vector<bool> Duplicate = duplicateIds();
    for (size_t BI = 0, BE = F.numBlocks(), Pos = 0; BI != BE; ++BI) {
      const Block &B = F.block(BI);
      for (size_t OI = 0, OE = B.size(); OI != OE; ++OI, ++Pos) {
        const Operation &Op = B.ops()[OI];
        if (Op.getId() == InvalidOpId)
          error(&B, &Op, "operation has invalid id");
        else if (Duplicate[Pos])
          error(&B, &Op, "duplicate operation id");
        checkOp(B, OI, Op);
      }
    }
    for (Reg R : F.observableRegs())
      if (R.getClass() != RegClass::GPR)
        error(nullptr, nullptr, "observable register is not a GPR");
    return std::move(Errors);
  }

private:
  /// Per operation in layout order, whether an earlier one has its id:
  /// sorting (id, position) pairs puts each id's first position first.
  std::vector<bool> duplicateIds() const {
    std::vector<uint64_t> Keys;
    for (size_t BI = 0, BE = F.numBlocks(); BI != BE; ++BI)
      for (const Operation &Op : F.block(BI).ops())
        Keys.push_back(uint64_t(Op.getId()) << 32 | Keys.size());
    std::sort(Keys.begin(), Keys.end());
    std::vector<bool> Duplicate(Keys.size());
    for (size_t I = 1; I < Keys.size(); ++I)
      if (Keys[I] >> 32 == Keys[I - 1] >> 32)
        Duplicate[static_cast<uint32_t>(Keys[I])] = true;
    return Duplicate;
  }

  void error(const Block *B, const Operation *Op, const std::string &Msg) {
    std::string Out = Msg;
    if (B)
      Out += " in block @" + B->getName();
    if (Op)
      Out += ": " + printOperation(F, *Op);
    Errors.push_back(Out);
  }

  void expectDefs(const Block &B, const Operation &Op, size_t N,
                  RegClass RC) {
    if (Op.defs().size() != N) {
      error(&B, &Op, "wrong destination count");
      return;
    }
    for (const DefSlot &D : Op.defs()) {
      if (D.R.getClass() != RC)
        error(&B, &Op, "destination has wrong register class");
      if (!Op.isCmpp() && D.Act != CmppAction::None)
        error(&B, &Op, "non-cmpp destination carries an action");
    }
  }

  void expectSrcReg(const Block &B, const Operation &Op, size_t I,
                    RegClass RC) {
    if (I >= Op.srcs().size() || !Op.srcs()[I].isReg() ||
        Op.srcs()[I].getReg().getClass() != RC)
      error(&B, &Op, "source " + std::to_string(I) +
                         " must be a register of the right class");
  }

  /// GPR register or immediate.
  void expectSrcValue(const Block &B, const Operation &Op, size_t I,
                      RegClass RC) {
    if (I >= Op.srcs().size()) {
      error(&B, &Op, "missing source operand");
      return;
    }
    const Operand &S = Op.srcs()[I];
    if (S.isLabel() || (S.isReg() && S.getReg().getClass() != RC))
      error(&B, &Op, "source " + std::to_string(I) + " has wrong kind");
  }

  void checkOp(const Block &B, size_t OI, const Operation &Op) {
    if (!Op.getGuard().isPred())
      error(&B, &Op, "guard is not a predicate register");
    if (Op.isCmpp() != (Op.getCond() != CompareCond::None))
      error(&B, &Op, "compare condition mismatch");
    if (!opcodeIsMemory(Op.getOpcode()) && Op.getAliasClass() != 0)
      error(&B, &Op, "alias class on a non-memory operation");
    // p0 is hardwired: the interpreter cannot write it, and the dataflow
    // analyses give it no bit.
    for (const DefSlot &D : Op.defs())
      if (D.R.isTruePred())
        error(&B, &Op, "operation may not write the hardwired true predicate");

    // Label operands must reference existing blocks.
    for (const Operand &S : Op.srcs())
      if (S.isLabel() && !F.blockById(S.getLabel()))
        error(&B, &Op, "label operand references unknown block");

    Opcode Opc = Op.getOpcode();
    if (opcodeIsIntArith(Opc) && Opc != Opcode::Mov) {
      expectDefs(B, Op, 1, RegClass::GPR);
      if (Op.srcs().size() != 2)
        error(&B, &Op, "arithmetic needs two sources");
      for (size_t I = 0; I < Op.srcs().size() && I < 2; ++I)
        expectSrcValue(B, Op, I, RegClass::GPR);
      return;
    }
    if (opcodeIsFloatArith(Opc)) {
      expectDefs(B, Op, 1, RegClass::FPR);
      if (Op.srcs().size() != 2)
        error(&B, &Op, "arithmetic needs two sources");
      for (size_t I = 0; I < Op.srcs().size() && I < 2; ++I)
        expectSrcValue(B, Op, I, RegClass::FPR);
      return;
    }

    switch (Opc) {
    case Opcode::Mov: {
      if (Op.defs().size() != 1 || Op.srcs().size() != 1) {
        error(&B, &Op, "mov needs one destination and one source");
        return;
      }
      Reg Dst = Op.defs()[0].R;
      const Operand &Src = Op.srcs()[0];
      if (Op.defs()[0].Act != CmppAction::None)
        error(&B, &Op, "mov destination carries an action");
      if (Dst.getClass() == RegClass::PR) {
        // PR moves initialize wired predicates; only 0/1 or PR sources.
        bool Ok = (Src.isImm() && (Src.getImm() == 0 || Src.getImm() == 1)) ||
                  (Src.isReg() && Src.getReg().isPred());
        if (!Ok)
          error(&B, &Op, "mov to predicate needs 0/1 or a PR source");
        return;
      }
      if (Dst.getClass() == RegClass::BTR) {
        error(&B, &Op, "mov cannot target a branch-target register");
        return;
      }
      if (Src.isLabel() ||
          (Src.isReg() && Src.getReg().getClass() != Dst.getClass()))
        error(&B, &Op, "mov source class mismatch");
      return;
    }
    case Opcode::Load:
      expectDefs(B, Op, 1, RegClass::GPR);
      if (Op.srcs().size() != 1)
        error(&B, &Op, "load needs one source");
      else
        expectSrcReg(B, Op, 0, RegClass::GPR);
      return;
    case Opcode::Store:
      if (!Op.defs().empty())
        error(&B, &Op, "store has no destinations");
      if (Op.srcs().size() != 2) {
        error(&B, &Op, "store needs (address, value) sources");
        return;
      }
      expectSrcReg(B, Op, 0, RegClass::GPR);
      // The stored value may be an immediate, a GPR, or an FPR (stored as
      // its integral image; memory is untyped 64-bit words).
      {
        const Operand &V = Op.srcs()[1];
        bool Ok = V.isImm() ||
                  (V.isReg() && (V.getReg().getClass() == RegClass::GPR ||
                                 V.getReg().getClass() == RegClass::FPR));
        if (!Ok)
          error(&B, &Op, "store value has wrong kind");
      }
      return;
    case Opcode::Cmpp: {
      if (Op.defs().empty() || Op.defs().size() > 2) {
        error(&B, &Op, "cmpp needs one or two destinations");
        return;
      }
      for (const DefSlot &D : Op.defs()) {
        if (D.R.getClass() != RegClass::PR)
          error(&B, &Op, "cmpp destination must be a predicate");
        if (D.Act == CmppAction::None)
          error(&B, &Op, "cmpp destination needs an action specifier");
      }
      if (Op.srcs().size() != 2) {
        error(&B, &Op, "cmpp needs two sources");
        return;
      }
      for (size_t I = 0; I < 2; ++I)
        expectSrcValue(B, Op, I, RegClass::GPR);
      return;
    }
    case Opcode::Pbr:
      expectDefs(B, Op, 1, RegClass::BTR);
      if (Op.srcs().size() != 1 || !Op.srcs()[0].isLabel())
        error(&B, &Op, "pbr needs a label source");
      return;
    case Opcode::Branch: {
      if (!Op.defs().empty())
        error(&B, &Op, "branch has no destinations");
      if (Op.srcs().size() != 2) {
        error(&B, &Op, "branch needs (predicate, target) sources");
        return;
      }
      expectSrcReg(B, Op, 0, RegClass::PR);
      expectSrcReg(B, Op, 1, RegClass::BTR);
      if (Op.srcs()[1].isReg() &&
          Op.srcs()[1].getReg().getClass() == RegClass::BTR &&
          B.lastDefBefore(Op.srcs()[1].getReg(), OI) < 0)
        error(&B, &Op, "branch target register has no preparing pbr in block");
      return;
    }
    case Opcode::Halt:
    case Opcode::Trap:
    case Opcode::Nop:
      if (!Op.defs().empty() || !Op.srcs().empty())
        error(&B, &Op, "terminator/nop takes no operands");
      return;
    default:
      CPR_UNREACHABLE("unhandled opcode in verifier");
    }
  }

  const Function &F;
  std::vector<std::string> Errors;
};

} // namespace

std::vector<std::string> cpr::verifyFunction(const Function &F) {
  return VerifierImpl(F).run();
}

void cpr::verifyOrDie(const Function &F, const std::string &Context) {
  std::vector<std::string> Errors = verifyFunction(F);
  if (Errors.empty())
    return;
  std::string Msg = "IR verification failed (" + Context + "):\n";
  for (const std::string &E : Errors)
    Msg += "  " + E + "\n";
  Msg += printFunction(F);
  reportFatalError(Msg);
}

unsigned cpr::reportVerification(const Function &F, DiagnosticEngine &Diags,
                                 const std::string &Context,
                                 const std::string &Site) {
  std::vector<std::string> Errors = verifyFunction(F);
  for (const std::string &E : Errors)
    Diags.report(DiagSeverity::Error, DiagCode::VerifyFailed,
                 Context.empty() ? E : E + " (" + Context + ")", Site);
  return static_cast<unsigned>(Errors.size());
}
