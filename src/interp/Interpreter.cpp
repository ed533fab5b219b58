//===- interp/Interpreter.cpp - Functional EPIC interpreter ---------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "support/Error.h"

#include <algorithm>
#include <unordered_map>

using namespace cpr;

namespace {

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

constexpr uint32_t NoWatch = ~0u;

/// What a decoded entry does. Sources A and B index the register file the
/// operation reads -- the file the IR walk read them from, whatever the
/// operand's class.
enum class Exec : uint8_t {
  // The integer opcodes keep their Opcode values, one case each:
  // gpr[Dst] = evalIntArith(opcode, gpr[A], gpr[B]).
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
  FloatArith, ///< fpr[Dst] = evalFloatArith(Opc, fpr[A], fpr[B])
  MovGpr,     ///< gpr[Dst] = gpr[A]
  MovFpr,     ///< fpr[Dst] = fpr[A]
  MovPr,      ///< pr[Dst] = pr[A]
  MovBtr,     ///< rejected by the verifier
  Load,       ///< gpr[Dst] = mem[gpr[A]]
  Store,      ///< mem[gpr[A]] = gpr[B]
  StoreFpr,   ///< mem[gpr[A]] = (int64_t)fpr[B]
  Cmpp,       ///< compare gpr[A], gpr[B]; Aux targets at CmppDefs[Dst]
  Pbr,        ///< btr[Dst] = block id Aux
  Branch,     ///< takes when the guard and pr[A] hold, to block btr[B];
              ///< Aux numbers the branch for the profile
  Halt,
  Trap, ///< Aux = layout index of the block
  Nop,
  EndOfBlock, ///< falls through to layout block Aux (none past the last)
};
static_assert(static_cast<unsigned>(Exec::Max) ==
              static_cast<unsigned>(Opcode::Max));

struct DecodedOp {
  Exec X = Exec::Nop;
  Opcode Opc = Opcode::Nop;
  CompareCond Cond = CompareCond::None;
  uint32_t Guard = 0; ///< pr index
  uint32_t Dst = 0;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t Aux = 0;
  /// Start of this operation's run of watch indices in
  /// Decoded::WatchRuns, or NoWatch: unwatched operations do no watch
  /// work.
  uint32_t Watch = NoWatch;
  OpId Id = InvalidOpId;
};

/// One cmpp target: what it writes for each (guard, compare) pair, row
/// 2 * guard + compare, from evalCmppAction; -1 leaves it untouched.
struct CmppDef {
  uint32_t Pr;
  int8_t Write[4];
};

/// Builds one register class's file: registers 0..NumRegs-1, then the
/// immediates that decoded sources read from it, so that every source is
/// a plain index. Sized once, from the highest register id decoded.
template <typename T> class FileBuilder {
public:
  uint32_t reg(uint32_t Id) {
    NumRegs = std::max<size_t>(NumRegs, static_cast<size_t>(Id) + 1);
    return Id;
  }
  /// Makes \p Src read constant \p C.
  void constant(T C, uint32_t &Src) {
    Src = static_cast<uint32_t>(Pool.size());
    Pool.push_back(C);
    Fixups.push_back(&Src);
  }
  /// The file's initial contents (registers zero) and, in every source
  /// constant() made, the constant's final index.
  std::vector<T> build() {
    for (uint32_t *Src : Fixups)
      *Src += static_cast<uint32_t>(NumRegs);
    std::vector<T> File(NumRegs, T{});
    File.insert(File.end(), Pool.begin(), Pool.end());
    return File;
  }

private:
  size_t NumRegs = 0;
  std::vector<T> Pool;
  std::vector<uint32_t *> Fixups;
};

/// A function decoded for one run: one entry per operation in layout
/// order, each block closed by an EndOfBlock entry, plus the register
/// files sized for everything the run can name.
struct Decoded {
  std::vector<DecodedOp> Code;
  std::vector<uint32_t> BlockStart; ///< per layout block: its first entry
  std::vector<int32_t> LayoutOf;    ///< BlockId -> layout index, or -1
  std::vector<CmppDef> CmppDefs;
  std::vector<OpId> BranchIds;     ///< by branch number (DecodedOp::Aux)
  std::vector<uint32_t> WatchRuns; ///< per watched entry: indices, NoWatch
  std::vector<uint32_t> Observed;  ///< gpr indices of the observables
  std::vector<int64_t> Gpr;
  std::vector<double> Fpr;
  std::vector<uint8_t> Pr;
  std::vector<BlockId> Btr;

  Decoded(const Function &F, const std::vector<RegBinding> &InitRegs,
          const std::vector<OpWatch> *OpWatches);
};

Decoded::Decoded(const Function &F, const std::vector<RegBinding> &InitRegs,
                 const std::vector<OpWatch> *OpWatches) {
  FileBuilder<int64_t> GprB;
  FileBuilder<double> FprB;
  FileBuilder<uint8_t> PrB;
  FileBuilder<BlockId> BtrB;
  PrB.reg(0); // p0, hardwired true
  // A register named outside the operations, read from its own class.
  auto NoteReg = [&](Reg R) {
    switch (R.getClass()) {
    case RegClass::GPR:
      GprB.reg(R.getId());
      break;
    case RegClass::FPR:
      FprB.reg(R.getId());
      break;
    case RegClass::PR:
      PrB.reg(R.getId());
      break;
    case RegClass::BTR:
      BtrB.reg(R.getId());
      break;
    }
  };

  std::unordered_map<OpId, std::vector<uint32_t>> WatchesOf;
  if (OpWatches)
    for (size_t I = 0; I < OpWatches->size(); ++I) {
      const OpWatch &W = (*OpWatches)[I];
      WatchesOf[W.Op].push_back(static_cast<uint32_t>(I));
      if (W.SampleReg.isValid())
        NoteReg(W.SampleReg);
    }

  auto SrcGpr = [&](const Operand &O, uint32_t &Src) {
    if (O.isImm())
      GprB.constant(O.getImm(), Src);
    else
      Src = GprB.reg(O.getReg().getId());
  };
  auto SrcFpr = [&](const Operand &O, uint32_t &Src) {
    if (O.isImm())
      FprB.constant(static_cast<double>(O.getImm()), Src);
    else
      Src = FprB.reg(O.getReg().getId());
  };

  size_t NumEntries = F.numBlocks();
  BlockId MaxId = 0;
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    NumEntries += F.block(L).size();
    MaxId = std::max(MaxId, F.block(L).getId());
  }
  // The fix-ups of FileBuilder::constant point into Code.
  Code.reserve(NumEntries);
  LayoutOf.assign(static_cast<size_t>(MaxId) + 1, -1);
  BlockStart.resize(F.numBlocks());

  for (size_t L = 0; L < F.numBlocks(); ++L) {
    const Block &Blk = F.block(L);
    if (LayoutOf[Blk.getId()] < 0)
      LayoutOf[Blk.getId()] = static_cast<int32_t>(L);
    BlockStart[L] = static_cast<uint32_t>(Code.size());
    for (const Operation &Op : Blk.ops()) {
      DecodedOp &D = Code.emplace_back();
      D.Id = Op.getId();
      D.Opc = Op.getOpcode();
      D.Guard = PrB.reg(Op.getGuard().getId());
      switch (D.Opc) {
      case Opcode::Cmpp:
        D.X = Exec::Cmpp;
        D.Cond = Op.getCond();
        SrcGpr(Op.srcs()[0], D.A);
        SrcGpr(Op.srcs()[1], D.B);
        D.Dst = static_cast<uint32_t>(CmppDefs.size());
        for (const DefSlot &Def : Op.defs()) {
          CmppDef &T = CmppDefs.emplace_back();
          T.Pr = PrB.reg(Def.R.getId());
          for (unsigned Row = 0; Row < 4; ++Row) {
            std::optional<bool> W = evalCmppAction(Def.Act, Row >= 2, Row & 1);
            T.Write[Row] = W ? static_cast<int8_t>(*W) : int8_t(-1);
          }
        }
        D.Aux = static_cast<uint32_t>(Op.defs().size());
        break;
      case Opcode::Branch:
        D.X = Exec::Branch;
        D.A = PrB.reg(Op.branchPred().getId());
        D.B = BtrB.reg(Op.branchTargetReg().getId());
        D.Aux = static_cast<uint32_t>(BranchIds.size());
        BranchIds.push_back(Op.getId());
        break;
      case Opcode::Mov: {
        const Reg Def = Op.defs()[0].R;
        const Operand &S = Op.srcs()[0];
        switch (Def.getClass()) {
        case RegClass::GPR:
          D.X = Exec::MovGpr;
          D.Dst = GprB.reg(Def.getId());
          SrcGpr(S, D.A);
          break;
        case RegClass::FPR:
          D.X = Exec::MovFpr;
          D.Dst = FprB.reg(Def.getId());
          SrcFpr(S, D.A);
          break;
        case RegClass::PR:
          D.X = Exec::MovPr;
          D.Dst = PrB.reg(Def.getId());
          if (S.isImm())
            PrB.constant(S.getImm() != 0, D.A);
          else
            D.A = PrB.reg(S.getReg().getId());
          break;
        case RegClass::BTR:
          D.X = Exec::MovBtr;
          break;
        }
        break;
      }
      case Opcode::Load:
        D.X = Exec::Load;
        D.Dst = GprB.reg(Op.defs()[0].R.getId());
        SrcGpr(Op.srcs()[0], D.A);
        break;
      case Opcode::Store: {
        const Operand &V = Op.srcs()[1];
        SrcGpr(Op.srcs()[0], D.A);
        if (V.isReg() && V.getReg().getClass() == RegClass::FPR) {
          D.X = Exec::StoreFpr;
          D.B = FprB.reg(V.getReg().getId());
        } else {
          D.X = Exec::Store;
          SrcGpr(V, D.B);
        }
        break;
      }
      case Opcode::Pbr:
        D.X = Exec::Pbr;
        D.Dst = BtrB.reg(Op.defs()[0].R.getId());
        D.Aux = Op.pbrTarget();
        break;
      case Opcode::Halt:
        D.X = Exec::Halt;
        break;
      case Opcode::Trap:
        D.X = Exec::Trap;
        D.Aux = static_cast<uint32_t>(L);
        break;
      case Opcode::Nop:
        D.X = Exec::Nop;
        break;
      default:
        if (opcodeIsIntArith(D.Opc)) {
          D.X = static_cast<Exec>(D.Opc);
          D.Dst = GprB.reg(Op.defs()[0].R.getId());
          SrcGpr(Op.srcs()[0], D.A);
          SrcGpr(Op.srcs()[1], D.B);
        } else if (opcodeIsFloatArith(D.Opc)) {
          D.X = Exec::FloatArith;
          D.Dst = FprB.reg(Op.defs()[0].R.getId());
          SrcFpr(Op.srcs()[0], D.A);
          SrcFpr(Op.srcs()[1], D.B);
        } else {
          CPR_UNREACHABLE("unhandled opcode in interpreter");
        }
      }
      if (WatchesOf.empty())
        continue;
      if (auto It = WatchesOf.find(D.Id); It != WatchesOf.end()) {
        D.Watch = static_cast<uint32_t>(WatchRuns.size());
        WatchRuns.insert(WatchRuns.end(), It->second.begin(),
                         It->second.end());
        WatchRuns.push_back(NoWatch);
      }
    }
    DecodedOp &End = Code.emplace_back();
    End.X = Exec::EndOfBlock;
    End.Aux = static_cast<uint32_t>(L + 1);
  }

  for (Reg R : F.observableRegs())
    Observed.push_back(GprB.reg(R.getId()));
  for (const RegBinding &B : InitRegs)
    NoteReg(B.R);

  Gpr = GprB.build();
  Fpr = FprB.build();
  Pr = PrB.build();
  Btr = BtrB.build();
  Pr[0] = 1;
  for (const RegBinding &B : InitRegs) {
    uint32_t Id = B.R.getId();
    switch (B.R.getClass()) {
    case RegClass::GPR:
      Gpr[Id] = B.Value;
      break;
    case RegClass::FPR:
      Fpr[Id] = static_cast<double>(B.Value);
      break;
    case RegClass::PR:
      assert(Id != 0 && "p0 is read-only");
      Pr[Id] = B.Value != 0;
      break;
    case RegClass::BTR:
      Btr[Id] = static_cast<BlockId>(B.Value);
      break;
    }
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

  Decoded D(F, InitRegs, Opts.Watches);
  const DecodedOp *Code = D.Code.data();
  const CmppDef *CmppDefs = D.CmppDefs.data();
  const uint32_t *WatchRuns = D.WatchRuns.data();
  int64_t *Gpr = D.Gpr.data();
  double *Fpr = D.Fpr.data();
  uint8_t *Pr = D.Pr.data();
  BlockId *Btr = D.Btr.data();
  const uint32_t NumBlocks = static_cast<uint32_t>(F.numBlocks());
  BranchTrace *Trace = Opts.Trace;
  std::vector<StoreEvent> *StoreTrace = Opts.StoreTrace;
  std::vector<OpWatch> *Watches = Opts.Watches;

  // Dense profile counts, flushed into Opts.Profile on every exit.
  ProfileData *Profile = Opts.Profile;
  std::vector<uint64_t> Counts;
  uint64_t *Entries = nullptr, *Reached = nullptr, *Taken = nullptr;
  if (Profile) {
    size_t NumBranches = D.BranchIds.size();
    Counts.assign(NumBlocks + 2 * NumBranches, 0);
    Entries = Counts.data();
    Reached = Entries + NumBlocks;
    Taken = Reached + NumBranches;
    Entries[0] = 1;
  }

  const uint64_t MaxSteps = Opts.MaxSteps;
  uint64_t Steps = 0;
  DynStats Stats;
  RunResult::Status St = RunResult::Status::Error;
  size_t PC = 0;
  while (true) {
    if (Steps >= MaxSteps) {
      St = RunResult::Status::StepLimit;
      break;
    }
    const DecodedOp &Op = Code[PC++];
    if (Op.X == Exec::EndOfBlock) {
      // Fall through to the next layout block.
      if (Op.Aux == NumBlocks) {
        Res.ErrorMsg = "control fell off the end of the function";
        St = RunResult::Status::Error;
        break;
      }
      if (Profile)
        ++Entries[Op.Aux];
      continue;
    }

    ++Steps;
    bool Guard = Pr[Op.Guard] != 0;
    Stats.OpsEffective += Guard;
    if (Op.Watch != NoWatch)
      for (const uint32_t *I = WatchRuns + Op.Watch; *I != NoWatch; ++I) {
        OpWatch &W = (*Watches)[*I];
        if (W.Dispatched++ == 0 && W.SampleReg.isValid()) {
          W.Sampled = true;
          uint32_t Id = W.SampleReg.getId();
          switch (W.SampleReg.getClass()) {
          case RegClass::GPR:
            W.FirstValue = Gpr[Id];
            break;
          case RegClass::FPR:
            W.FirstValue = static_cast<int64_t>(Fpr[Id]);
            break;
          case RegClass::PR:
            W.FirstValue = Pr[Id];
            break;
          case RegClass::BTR:
            W.FirstValue = static_cast<int64_t>(Btr[Id]);
            break;
          }
        }
        if (Guard) {
          ++W.Effective;
          if (W.FirstEffectiveStep == 0)
            W.FirstEffectiveStep = Steps;
        }
      }

    // Every case continues the run; only an exit leaves the switch.
    switch (Op.X) {
#define INT_ARITH(Name)                                                        \
  case Exec::Name:                                                             \
    if (Guard)                                                                 \
      Gpr[Op.Dst] = evalIntArith(Opcode::Name, Gpr[Op.A], Gpr[Op.B]);          \
    continue;
      INT_ARITH(Add)
      INT_ARITH(Sub)
      INT_ARITH(Mul)
      INT_ARITH(Div)
      INT_ARITH(Rem)
      INT_ARITH(And)
      INT_ARITH(Or)
      INT_ARITH(Xor)
      INT_ARITH(Shl)
      INT_ARITH(Shr)
      INT_ARITH(Min)
      INT_ARITH(Max)
#undef INT_ARITH
    case Exec::FloatArith:
      if (Guard)
        Fpr[Op.Dst] = evalFloatArith(Op.Opc, Fpr[Op.A], Fpr[Op.B]);
      continue;
    case Exec::MovGpr:
      if (Guard)
        Gpr[Op.Dst] = Gpr[Op.A];
      continue;
    case Exec::MovFpr:
      if (Guard)
        Fpr[Op.Dst] = Fpr[Op.A];
      continue;
    case Exec::MovPr:
      if (Guard) {
        assert(Op.Dst != 0 && "p0 is read-only");
        Pr[Op.Dst] = Pr[Op.A];
      }
      continue;
    case Exec::MovBtr:
      if (Guard)
        CPR_UNREACHABLE("mov to BTR rejected by verifier");
      continue;
    case Exec::Load:
      if (Guard)
        Gpr[Op.Dst] = Mem.load(Gpr[Op.A]);
      continue;
    case Exec::Store:
    case Exec::StoreFpr:
      if (Guard) {
        int64_t Value = Op.X == Exec::StoreFpr
                            ? static_cast<int64_t>(Fpr[Op.B])
                            : Gpr[Op.B];
        int64_t Addr = Gpr[Op.A];
        if (StoreTrace)
          StoreTrace->push_back(StoreEvent{Op.Id, Addr, Value});
        Mem.store(Addr, Value);
      }
      continue;
    case Exec::Cmpp: {
      // cmpp writes its unconditional targets even under a false guard.
      unsigned Row = 2 * Guard + evalCompareCond(Op.Cond, Gpr[Op.A], Gpr[Op.B]);
      for (const CmppDef *Def = CmppDefs + Op.Dst, *E = Def + Op.Aux;
           Def != E; ++Def)
        if (int8_t W = Def->Write[Row]; W >= 0) {
          assert(Def->Pr != 0 && "p0 is read-only");
          Pr[Def->Pr] = static_cast<uint8_t>(W);
        }
      continue;
    }
    case Exec::Pbr:
      if (Guard)
        Btr[Op.Dst] = Op.Aux;
      continue;
    case Exec::Branch: {
      ++Stats.BranchesDispatched;
      if (Profile)
        ++Reached[Op.Aux];
      bool Take = Guard && Pr[Op.A];
      if (Trace)
        Trace->record(Op.Id, Take);
      if (!Take)
        continue;
      if (Op.Watch != NoWatch)
        for (const uint32_t *I = WatchRuns + Op.Watch; *I != NoWatch; ++I)
          ++(*Watches)[*I].Taken;
      ++Stats.BranchesTaken;
      if (Profile)
        ++Taken[Op.Aux];
      BlockId Target = Btr[Op.B];
      if (Target >= D.LayoutOf.size() || D.LayoutOf[Target] < 0) {
        Res.ErrorMsg = "branch to invalid target (uninitialized btr?)";
        St = RunResult::Status::Error;
        break;
      }
      uint32_t L = static_cast<uint32_t>(D.LayoutOf[Target]);
      if (Profile)
        ++Entries[L];
      PC = D.BlockStart[L];
      continue;
    }
    case Exec::Halt:
      if (!Guard)
        continue;
      if (Trace)
        Trace->markTerminal(Op.Id);
      for (uint32_t R : D.Observed)
        Res.Observed.push_back(Gpr[R]);
      St = RunResult::Status::Halted;
      break;
    case Exec::Trap:
      if (!Guard)
        continue;
      if (Trace)
        Trace->markTerminal(Op.Id);
      Res.ErrorMsg = "trap executed in block @" + F.block(Op.Aux).getName();
      St = RunResult::Status::Trapped;
      break;
    case Exec::Nop:
    case Exec::EndOfBlock:
      continue;
    }
    break;
  }

  Res.St = St;
  Res.Steps = Steps;
  Stats.OpsDispatched = Steps;
  Res.Stats = Stats;
  if (Profile) {
    for (uint32_t L = 0; L < NumBlocks; ++L)
      if (Entries[L] != 0)
        Profile->addBlockEntry(F.block(L).getId(), Entries[L]);
    for (size_t I = 0; I < D.BranchIds.size(); ++I) {
      if (Reached[I] != 0)
        Profile->addBranchReached(D.BranchIds[I], Reached[I]);
      if (Taken[I] != 0)
        Profile->addBranchTaken(D.BranchIds[I], Taken[I]);
    }
  }
  return Res;
}
