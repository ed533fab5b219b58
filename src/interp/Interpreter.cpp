//===- interp/Interpreter.cpp - Functional EPIC interpreter ---------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "ir/IRPrinter.h"
#include "support/Error.h"

#include <cmath>

using namespace cpr;

namespace {

/// Register file: dense per-class vectors, grown on demand.
class RegFile {
public:
  int64_t &gpr(uint32_t Id) { return grow(Gpr, Id); }
  double &fpr(uint32_t Id) { return grow(Fpr, Id); }
  BlockId &btr(uint32_t Id) { return grow(Btr, Id); }

  bool pred(uint32_t Id) {
    if (Id == 0)
      return true; // p0 hardwired
    return grow(Pr, Id) != 0;
  }
  void setPred(uint32_t Id, bool V) {
    assert(Id != 0 && "p0 is read-only");
    grow(Pr, Id) = V ? 1 : 0;
  }

private:
  template <typename T> static T &grow(std::vector<T> &V, uint32_t Id) {
    if (Id >= V.size())
      V.resize(static_cast<size_t>(Id) + 1, T{});
    return V[Id];
  }
  std::vector<int64_t> Gpr;
  std::vector<double> Fpr;
  std::vector<uint8_t> Pr;
  std::vector<BlockId> Btr;
};

int64_t evalIntArith(Opcode Opc, int64_t A, int64_t B) {
  switch (Opc) {
  case Opcode::Add:
    return static_cast<int64_t>(static_cast<uint64_t>(A) +
                                static_cast<uint64_t>(B));
  case Opcode::Sub:
    return static_cast<int64_t>(static_cast<uint64_t>(A) -
                                static_cast<uint64_t>(B));
  case Opcode::Mul:
    return static_cast<int64_t>(static_cast<uint64_t>(A) *
                                static_cast<uint64_t>(B));
  case Opcode::Div:
    return B == 0 ? 0 : A / B; // division by zero reads as 0 (documented)
  case Opcode::Rem:
    return B == 0 ? 0 : A % B;
  case Opcode::And:
    return A & B;
  case Opcode::Or:
    return A | B;
  case Opcode::Xor:
    return A ^ B;
  case Opcode::Shl:
    return static_cast<int64_t>(static_cast<uint64_t>(A)
                                << (static_cast<uint64_t>(B) & 63));
  case Opcode::Shr:
    return static_cast<int64_t>(static_cast<uint64_t>(A) >>
                                (static_cast<uint64_t>(B) & 63));
  case Opcode::Min:
    return A < B ? A : B;
  case Opcode::Max:
    return A > B ? A : B;
  default:
    CPR_UNREACHABLE("not an integer arithmetic opcode");
  }
}

double evalFloatArith(Opcode Opc, double A, double B) {
  switch (Opc) {
  case Opcode::FAdd:
    return A + B;
  case Opcode::FSub:
    return A - B;
  case Opcode::FMul:
    return A * B;
  case Opcode::FDiv:
    return B == 0.0 ? 0.0 : A / B;
  default:
    CPR_UNREACHABLE("not a float arithmetic opcode");
  }
}

} // namespace

RunResult cpr::interpret(const Function &F, Memory &Mem,
                         const std::vector<RegBinding> &InitRegs,
                         const InterpOptions &Opts) {
  RunResult Res;
  if (F.numBlocks() == 0) {
    Res.ErrorMsg = "function has no blocks";
    return Res;
  }

  RegFile Regs;
  for (const RegBinding &B : InitRegs) {
    switch (B.R.getClass()) {
    case RegClass::GPR:
      Regs.gpr(B.R.getId()) = B.Value;
      break;
    case RegClass::FPR:
      Regs.fpr(B.R.getId()) = static_cast<double>(B.Value);
      break;
    case RegClass::PR:
      Regs.setPred(B.R.getId(), B.Value != 0);
      break;
    case RegClass::BTR:
      Regs.btr(B.R.getId()) = static_cast<BlockId>(B.Value);
      break;
    }
  }

  auto SrcGpr = [&](const Operand &O) -> int64_t {
    if (O.isImm())
      return O.getImm();
    return Regs.gpr(O.getReg().getId());
  };
  auto SrcFpr = [&](const Operand &O) -> double {
    if (O.isImm())
      return static_cast<double>(O.getImm());
    return Regs.fpr(O.getReg().getId());
  };

  size_t BI = 0; // layout index of current block
  size_t OI = 0;
  if (Opts.Profile)
    Opts.Profile->addBlockEntry(F.block(0).getId());

  while (true) {
    if (Res.Steps >= Opts.MaxSteps) {
      Res.St = RunResult::Status::StepLimit;
      return Res;
    }
    const Block &B = F.block(BI);
    if (OI >= B.size()) {
      // Fall through to the next layout block.
      if (BI + 1 >= F.numBlocks()) {
        Res.St = RunResult::Status::Error;
        Res.ErrorMsg = "control fell off the end of the function";
        return Res;
      }
      ++BI;
      OI = 0;
      if (Opts.Profile)
        Opts.Profile->addBlockEntry(F.block(BI).getId());
      continue;
    }

    const Operation &Op = B.ops()[OI];
    ++Res.Steps;
    ++Res.Stats.OpsDispatched;
    bool Guard = Regs.pred(Op.getGuard().getId());
    if (Guard)
      ++Res.Stats.OpsEffective;

    if (Opts.Watches)
      for (OpWatch &W : *Opts.Watches) {
        if (W.Op != Op.getId())
          continue;
        if (W.Dispatched++ == 0 && W.SampleReg.isValid()) {
          W.Sampled = true;
          switch (W.SampleReg.getClass()) {
          case RegClass::GPR:
            W.FirstValue = Regs.gpr(W.SampleReg.getId());
            break;
          case RegClass::FPR:
            W.FirstValue = static_cast<int64_t>(Regs.fpr(W.SampleReg.getId()));
            break;
          case RegClass::PR:
            W.FirstValue = Regs.pred(W.SampleReg.getId()) ? 1 : 0;
            break;
          case RegClass::BTR:
            W.FirstValue = static_cast<int64_t>(Regs.btr(W.SampleReg.getId()));
            break;
          }
        }
        if (Guard) {
          ++W.Effective;
          if (W.FirstEffectiveStep == 0)
            W.FirstEffectiveStep = Res.Steps;
        }
      }

    Opcode Opc = Op.getOpcode();

    // cmpp writes its unconditional targets even under a false guard.
    if (Opc == Opcode::Cmpp) {
      bool Cmp = evalCompareCond(Op.getCond(), SrcGpr(Op.srcs()[0]),
                                 SrcGpr(Op.srcs()[1]));
      for (const DefSlot &D : Op.defs()) {
        std::optional<bool> W = evalCmppAction(D.Act, Guard, Cmp);
        if (W)
          Regs.setPred(D.R.getId(), *W);
      }
      ++OI;
      continue;
    }

    if (Opc == Opcode::Branch) {
      ++Res.Stats.BranchesDispatched;
      if (Opts.Profile)
        Opts.Profile->addBranchReached(Op.getId());
      bool Take = Guard && Regs.pred(Op.branchPred().getId());
      if (Opts.Trace)
        Opts.Trace->record(Op.getId(), Take);
      if (Opts.Watches && Take)
        for (OpWatch &W : *Opts.Watches)
          if (W.Op == Op.getId())
            ++W.Taken;
      if (Take) {
        ++Res.Stats.BranchesTaken;
        if (Opts.Profile)
          Opts.Profile->addBranchTaken(Op.getId());
        BlockId Target = Regs.btr(Op.branchTargetReg().getId());
        int TargetIdx = F.layoutIndex(Target);
        if (TargetIdx < 0) {
          Res.St = RunResult::Status::Error;
          Res.ErrorMsg = "branch to invalid target (uninitialized btr?)";
          return Res;
        }
        BI = static_cast<size_t>(TargetIdx);
        OI = 0;
        if (Opts.Profile)
          Opts.Profile->addBlockEntry(Target);
        continue;
      }
      ++OI;
      continue;
    }

    if (!Guard) {
      ++OI;
      continue; // nullified
    }

    switch (Opc) {
    case Opcode::Mov: {
      const DefSlot &D = Op.defs()[0];
      const Operand &S = Op.srcs()[0];
      switch (D.R.getClass()) {
      case RegClass::GPR:
        Regs.gpr(D.R.getId()) = SrcGpr(S);
        break;
      case RegClass::FPR:
        Regs.fpr(D.R.getId()) = SrcFpr(S);
        break;
      case RegClass::PR:
        Regs.setPred(D.R.getId(), S.isImm() ? S.getImm() != 0
                                            : Regs.pred(S.getReg().getId()));
        break;
      case RegClass::BTR:
        CPR_UNREACHABLE("mov to BTR rejected by verifier");
      }
      break;
    }
    case Opcode::Load:
      Regs.gpr(Op.defs()[0].R.getId()) = Mem.load(SrcGpr(Op.srcs()[0]));
      break;
    case Opcode::Store: {
      const Operand &V = Op.srcs()[1];
      int64_t Value =
          V.isReg() && V.getReg().getClass() == RegClass::FPR
              ? static_cast<int64_t>(Regs.fpr(V.getReg().getId()))
              : SrcGpr(V);
      int64_t Addr = SrcGpr(Op.srcs()[0]);
      if (Opts.StoreTrace)
        Opts.StoreTrace->push_back(StoreEvent{Op.getId(), Addr, Value});
      Mem.store(Addr, Value);
      break;
    }
    case Opcode::Pbr:
      Regs.btr(Op.defs()[0].R.getId()) = Op.pbrTarget();
      break;
    case Opcode::Halt: {
      Res.St = RunResult::Status::Halted;
      if (Opts.Trace)
        Opts.Trace->markTerminal(Op.getId());
      for (Reg R : F.observableRegs())
        Res.Observed.push_back(Regs.gpr(R.getId()));
      return Res;
    }
    case Opcode::Trap:
      Res.St = RunResult::Status::Trapped;
      if (Opts.Trace)
        Opts.Trace->markTerminal(Op.getId());
      Res.ErrorMsg = "trap executed in block @" + B.getName();
      return Res;
    case Opcode::Nop:
      break;
    default:
      if (opcodeIsIntArith(Opc)) {
        Regs.gpr(Op.defs()[0].R.getId()) =
            evalIntArith(Opc, SrcGpr(Op.srcs()[0]), SrcGpr(Op.srcs()[1]));
        break;
      }
      if (opcodeIsFloatArith(Opc)) {
        Regs.fpr(Op.defs()[0].R.getId()) =
            evalFloatArith(Opc, SrcFpr(Op.srcs()[0]), SrcFpr(Op.srcs()[1]));
        break;
      }
      CPR_UNREACHABLE("unhandled opcode in interpreter");
    }
    ++OI;
  }
}
