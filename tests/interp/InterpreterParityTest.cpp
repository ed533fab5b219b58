//===- tests/interp/InterpreterParityTest.cpp - Flat-state interpreter ----===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// interpret() over paged memory and a decode-once dispatch loop against
// the interpreter it replaced -- a per-operation walk of the IR over
// grow-on-demand register files and a hash-map memory -- kept below
// verbatim as the reference. Every RunResult field, the final memory,
// the profile, the branch and store traces and every OpWatch field must
// be equal: on the paper suite and the benchmark ladder (both sides),
// generated programs, the fuzz regression corpus and the lint fixtures
// (watched on the operations their findings name), each at four step
// caps. The equivalence oracle's memory verdicts must keep their text.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "cpr/ControlCPR.h"
#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "lint/Lint.h"
#include "lint/Witness.h"
#include "support/Error.h"
#include "workloads/BenchmarkSuite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#ifndef CPR_FUZZ_REGRESSION_DIR
#error "build must define CPR_FUZZ_REGRESSION_DIR"
#endif
#ifndef CPR_LINT_FIXTURE_DIR
#error "build must define CPR_LINT_FIXTURE_DIR"
#endif

using namespace cpr;

namespace reference {

// --- The reference: the interpreter before flat state ---------------------
// (Its arithmetic calls are qualified: an opcode argument would also find
// the library's evalIntArith by argument-dependent lookup.)

/// Sparse 64-bit-word memory; unwritten cells read as zero.
class Memory {
public:
  int64_t load(int64_t Addr) const {
    auto It = Cells.find(Addr);
    return It == Cells.end() ? 0 : It->second;
  }

  void store(int64_t Addr, int64_t Value) { Cells[Addr] = Value; }

  size_t numWrittenCells() const { return Cells.size(); }

  bool operator==(const Memory &O) const { return Cells == O.Cells; }
  bool operator!=(const Memory &O) const { return !(*this == O); }

  const std::unordered_map<int64_t, int64_t> &cells() const { return Cells; }

private:
  std::unordered_map<int64_t, int64_t> Cells;
};

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

RunResult interpret(const Function &F, Memory &Mem,
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
        Regs.gpr(Op.defs()[0].R.getId()) = reference::evalIntArith(
            Opc, SrcGpr(Op.srcs()[0]), SrcGpr(Op.srcs()[1]));
        break;
      }
      if (opcodeIsFloatArith(Opc)) {
        Regs.fpr(Op.defs()[0].R.getId()) = reference::evalFloatArith(
            Opc, SrcFpr(Op.srcs()[0]), SrcFpr(Op.srcs()[1]));
        break;
      }
      CPR_UNREACHABLE("unhandled opcode in interpreter");
    }
    ++OI;
  }
}

/// The final state of one reference run.
struct RunState {
  RunResult Result;
  Memory Mem;
};

std::string describeExit(const RunResult &R) {
  switch (R.St) {
  case RunResult::Status::Halted:
    return "halted";
  case RunResult::Status::Trapped:
    return "trapped (compensation canary)";
  case RunResult::Status::StepLimit:
    return "hit the step limit";
  case RunResult::Status::Error:
    return "errored: " + R.ErrorMsg;
  }
  return "unknown";
}

std::string describeLastStore(const std::vector<StoreEvent> &Trace,
                              int64_t Addr) {
  for (size_t I = Trace.size(); I-- > 0;)
    if (Trace[I].Addr == Addr)
      return "store #" + std::to_string(I) + " (op id " +
             std::to_string(Trace[I].Op) + ") wrote " +
             std::to_string(Trace[I].Value);
  return "never stored (initial value)";
}

EquivResult compareRuns(const Function &A, const RunState &SA,
                        const Function &B, const RunState &SB,
                        const std::vector<StoreEvent> *StoresA,
                        const std::vector<StoreEvent> *StoresB) {
  EquivResult Res;
  const RunResult &RA = SA.Result;
  const RunResult &RB = SB.Result;
  if (RA.St != RB.St) {
    Res.Kind = EquivResult::Divergence::ExitPath;
    Res.Detail = "exit path differs: @" + A.getName() + " " +
                 describeExit(RA) + " after " + std::to_string(RA.Steps) +
                 " steps vs @" + B.getName() + " " + describeExit(RB) +
                 " after " + std::to_string(RB.Steps) + " steps";
    return Res;
  }
  if (RA.St != RunResult::Status::Halted) {
    Res.Kind = EquivResult::Divergence::ExitPath;
    Res.Detail = "both runs failed to halt: " + RA.ErrorMsg;
    return Res;
  }
  if (RA.Observed != RB.Observed) {
    Res.Kind = EquivResult::Divergence::Register;
    // Name the first diverging observable. The lists follow
    // observableRegs() order, which both functions share (the treated
    // code keeps the baseline's observables).
    size_t N = std::min(RA.Observed.size(), RB.Observed.size());
    for (size_t I = 0; I < N; ++I) {
      if (RA.Observed[I] != RB.Observed[I]) {
        std::string Name = I < A.observableRegs().size()
                               ? A.observableRegs()[I].str()
                               : "#" + std::to_string(I);
        Res.Detail = "observable " + Name + " differs: " +
                     std::to_string(RA.Observed[I]) + " vs " +
                     std::to_string(RB.Observed[I]);
        return Res;
      }
    }
    Res.Detail = "observable register count differs: " +
                 std::to_string(RA.Observed.size()) + " vs " +
                 std::to_string(RB.Observed.size());
    return Res;
  }
  // Semantic memory comparison: every address written by either run must
  // read identically (a write of zero to an otherwise-untouched cell is
  // equivalent to no write). Report the lowest diverging address so the
  // diagnostic is deterministic regardless of hash-map iteration order.
  const Memory &MemA = SA.Mem;
  const Memory &MemB = SB.Mem;
  bool HaveDiverging = false;
  int64_t DivergingAddr = 0;
  auto NoteDivergence = [&](int64_t Addr) {
    if (!HaveDiverging || Addr < DivergingAddr) {
      HaveDiverging = true;
      DivergingAddr = Addr;
    }
  };
  for (const auto &[Addr, Val] : MemA.cells())
    if (MemB.load(Addr) != Val)
      NoteDivergence(Addr);
  for (const auto &[Addr, Val] : MemB.cells())
    if (MemA.load(Addr) != Val)
      NoteDivergence(Addr);
  if (HaveDiverging) {
    Res.Kind = EquivResult::Divergence::Memory;
    Res.Detail = "memory differs at address " +
                 std::to_string(DivergingAddr) + ": " +
                 std::to_string(MemA.load(DivergingAddr)) + " vs " +
                 std::to_string(MemB.load(DivergingAddr));
    if (StoresA && StoresB)
      Res.Detail += "; @" + A.getName() + " " +
                    describeLastStore(*StoresA, DivergingAddr) + ", @" +
                    B.getName() + " " +
                    describeLastStore(*StoresB, DivergingAddr);
    return Res;
  }
  Res.Equivalent = true;
  return Res;
}

} // namespace reference

namespace {

using Cells = std::vector<std::pair<int64_t, int64_t>>;

/// The written cells of \p Mem in address order. The reference memory
/// exposes its unordered map; the paged one sorts for itself.
template <typename M> Cells sortedCellsOf(const M &Mem) {
  if constexpr (requires { Mem.sortedCells(); }) {
    return Mem.sortedCells();
  } else {
    Cells Out(Mem.cells().begin(), Mem.cells().end());
    std::sort(Out.begin(), Out.end());
    return Out;
  }
}

/// One input of the corpus: a function, its initial registers and memory,
/// and the operations to watch.
struct Case {
  std::string Name;
  std::shared_ptr<const Function> F;
  std::vector<RegBinding> Regs;
  Cells Mem;
  std::vector<OpWatch> Watches;
};

/// Up to \p Max watches spread over \p F's operations, each sampling the
/// operation's first register source: enough to drive the watch slots on
/// every large program without making the reference's per-step watch scan
/// dominate the run.
std::vector<OpWatch> spreadWatches(const Function &F, size_t Max) {
  std::vector<const Operation *> Ops;
  for (size_t BI = 0; BI < F.numBlocks(); ++BI)
    for (const Operation &Op : F.block(BI).ops())
      Ops.push_back(&Op);
  std::vector<OpWatch> Out;
  size_t Stride = std::max<size_t>(1, Ops.size() / Max);
  for (size_t I = 0; I < Ops.size() && Out.size() < Max; I += Stride) {
    OpWatch W;
    W.Op = Ops[I]->getId();
    for (const Operand &S : Ops[I]->srcs())
      if (S.isReg()) {
        W.SampleReg = S.getReg();
        break;
      }
    Out.push_back(W);
  }
  return Out;
}

void addCase(std::vector<Case> &Out, std::string Name,
             std::shared_ptr<const Function> F,
             const std::vector<RegBinding> &Regs, Cells Mem,
             std::vector<OpWatch> Watches) {
  Case C;
  C.Name = std::move(Name);
  C.F = std::move(F);
  C.Regs = Regs;
  C.Mem = std::move(Mem);
  C.Watches = std::move(Watches);
  Out.push_back(std::move(C));
}

/// \p P before and, when \p Treated, after CPR (profiled on its own input).
void addProgram(std::vector<Case> &Out, const std::string &Name,
                const KernelProgram &P, bool Treated) {
  Cells Init = sortedCellsOf(P.InitMem);
  std::shared_ptr<const Function> Base = P.Func->clone();
  addCase(Out, Name + "/baseline", Base, P.InitRegs, Init,
          spreadWatches(*Base, 6));
  if (!Treated)
    return;
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
  std::shared_ptr<Function> T = P.Func->clone();
  runControlCPR(*T, Prof, CPROptions());
  addCase(Out, Name + "/treated", T, P.InitRegs, Init, spreadWatches(*T, 6));
}

/// A lint fixture, run once on empty inputs and once per finding on the
/// finding's witness inputs, watched on the operations the finding names.
void addFixture(std::vector<Case> &Out, const std::string &Name) {
  std::ifstream In(std::string(CPR_LINT_FIXTURE_DIR) + "/" + Name);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::shared_ptr<const Function> F = parseFunctionOrDie(Buf.str());
  LintOptions Opts;
  Opts.Machines = MachineDesc::paperModels();
  EXPECT_TRUE(parseInjectedSchedules(Buf.str(), Opts.Schedules).ok()) << Name;
  LintResult R = LintDriver(Opts).run(*F);
  std::vector<OpWatch> All;
  auto Watch = [&](std::vector<OpWatch> &Ws, OpId Op, Reg Sample) {
    if (Op == InvalidOpId)
      return;
    OpWatch W;
    W.Op = Op;
    W.SampleReg = Sample;
    Ws.push_back(W);
    All.push_back(W);
  };
  size_t K = 0;
  for (const LintFinding &Fd : R.Findings) {
    std::vector<OpWatch> Ws;
    Watch(Ws, Fd.Op, Reg());
    Cells Mem;
    std::vector<RegBinding> Regs;
    if (const LintWitness *W = Fd.Witness.get()) {
      Reg Sample = W->WatchRegs.empty() ? Reg() : W->WatchRegs.front();
      Watch(Ws, W->AnchorOp, Sample);
      for (OpId Op : W->AuxOps)
        Watch(Ws, Op, Sample);
      if (W->Solved) {
        Regs = W->InitRegs;
        Mem = W->InitMem;
      }
    }
    addCase(Out, "fixture/" + Name + "/finding" + std::to_string(K++), F,
            Regs, Mem, Ws);
  }
  addCase(Out, "fixture/" + Name, F, {}, {}, All);
}

const std::vector<Case> &corpus() {
  static const std::vector<Case> Cases = [] {
    std::vector<Case> Out;
    for (const BenchmarkSpec &Spec : paperBenchmarkSuite())
      addProgram(Out, "suite/" + Spec.Name, Spec.Build(), /*Treated=*/true);
    struct Rung {
      unsigned MaxBlocks, MaxItemsPerRegion;
      std::vector<uint64_t> Seeds;
    };
    for (const Rung &R : {Rung{80, 8, {1000, 1002, 1003}},
                          Rung{120, 12, {1000, 1008, 1001}}}) {
      GeneratorConfig GC;
      GC.MaxBlocks = R.MaxBlocks;
      GC.MaxItemsPerRegion = R.MaxItemsPerRegion;
      GC.SyntheticFrac = 0.0;
      for (uint64_t Seed : R.Seeds)
        addProgram(Out,
                   "ladder/" + std::to_string(R.MaxBlocks) + "/" +
                       std::to_string(Seed),
                   generateProgram(Seed, GC), /*Treated=*/true);
    }
    for (uint64_t Seed = 1; Seed <= 200; ++Seed)
      addProgram(Out, "generated/" + std::to_string(Seed),
                 generateProgram(Seed, GeneratorConfig()),
                 /*Treated=*/false);
    for (const std::string &Path : listCorpusFiles(CPR_FUZZ_REGRESSION_DIR)) {
      FuzzParseResult FR = loadFuzzProgramFile(Path);
      EXPECT_TRUE(FR) << Path << ": " << FR.Error;
      if (FR)
        addProgram(Out, Path, FR.Program, /*Treated=*/false);
    }
    for (const char *Name :
         {"bad_frp.ir", "clean_cpr.ir", "dead_under_predicate.ir",
          "missing_compensation.ir", "oversubscribed_fetch.ir",
          "oversubscribed_slot.ir", "redundant_compensation.ir",
          "uninit_read.ir", "unsafe_speculation.ir", "use_before_def.ir",
          "warn_unrecognized_frp.ir"})
      addFixture(Out, Name);
    return Out;
  }();
  return Cases;
}

/// One run of both interpreters with every instrument attached.
struct Observed {
  RunResult Result;
  Cells Final;
  ProfileData Profile;
  BranchTrace Trace;
  std::vector<StoreEvent> Stores;
  std::vector<OpWatch> Watches;
};

template <typename Mem, typename Interp>
Observed runWith(const Case &C, uint64_t MaxSteps, bool Instrumented,
                 Interp Run) {
  Observed O;
  Mem M;
  for (const auto &[Addr, Value] : C.Mem)
    M.store(Addr, Value);
  O.Watches = C.Watches;
  InterpOptions Opts;
  Opts.MaxSteps = MaxSteps;
  if (Instrumented) {
    Opts.Profile = &O.Profile;
    Opts.Trace = &O.Trace;
    Opts.StoreTrace = &O.Stores;
    if (!O.Watches.empty())
      Opts.Watches = &O.Watches;
  }
  O.Result = Run(*C.F, M, C.Regs, Opts);
  O.Final = sortedCellsOf(M);
  EXPECT_EQ(M.numWrittenCells(), O.Final.size());
  return O;
}

void expectSame(const Case &C, const Observed &Want, const Observed &Got,
                const std::string &Where) {
  const RunResult &W = Want.Result, &G = Got.Result;
  EXPECT_EQ(W.St, G.St) << Where;
  EXPECT_EQ(W.ErrorMsg, G.ErrorMsg) << Where;
  EXPECT_EQ(W.Steps, G.Steps) << Where;
  EXPECT_EQ(W.Stats.OpsDispatched, G.Stats.OpsDispatched) << Where;
  EXPECT_EQ(W.Stats.OpsEffective, G.Stats.OpsEffective) << Where;
  EXPECT_EQ(W.Stats.BranchesDispatched, G.Stats.BranchesDispatched) << Where;
  EXPECT_EQ(W.Stats.BranchesTaken, G.Stats.BranchesTaken) << Where;
  EXPECT_EQ(W.Observed, G.Observed) << Where;
  EXPECT_EQ(Want.Final, Got.Final) << Where;

  const Function &F = *C.F;
  EXPECT_EQ(Want.Profile.empty(), Got.Profile.empty()) << Where;
  for (size_t BI = 0; BI < F.numBlocks(); ++BI) {
    const Block &B = F.block(BI);
    EXPECT_EQ(Want.Profile.blockEntries(B.getId()),
              Got.Profile.blockEntries(B.getId()))
        << Where << " @" << B.getName();
    for (const Operation &Op : B.ops()) {
      EXPECT_EQ(Want.Profile.branchReached(Op.getId()),
                Got.Profile.branchReached(Op.getId()))
          << Where << " op " << Op.getId();
      EXPECT_EQ(Want.Profile.branchTaken(Op.getId()),
                Got.Profile.branchTaken(Op.getId()))
          << Where << " op " << Op.getId();
    }
  }

  ASSERT_EQ(Want.Trace.size(), Got.Trace.size()) << Where;
  EXPECT_EQ(Want.Trace.terminalOp(), Got.Trace.terminalOp()) << Where;
  for (size_t I = 0; I < Want.Trace.size(); ++I)
    if (!(Want.Trace.event(I) == Got.Trace.event(I))) {
      ADD_FAILURE() << Where << ": branch event " << I << " differs";
      break;
    }

  ASSERT_EQ(Want.Stores.size(), Got.Stores.size()) << Where;
  for (size_t I = 0; I < Want.Stores.size(); ++I) {
    const StoreEvent &SW = Want.Stores[I], &SG = Got.Stores[I];
    if (SW.Op != SG.Op || SW.Addr != SG.Addr || SW.Value != SG.Value) {
      ADD_FAILURE() << Where << ": store " << I << " differs";
      break;
    }
  }

  ASSERT_EQ(Want.Watches.size(), Got.Watches.size()) << Where;
  for (size_t I = 0; I < Want.Watches.size(); ++I) {
    const OpWatch &WW = Want.Watches[I], &WG = Got.Watches[I];
    std::string At = Where + " watch " + std::to_string(I);
    EXPECT_EQ(WW.Op, WG.Op) << At;
    EXPECT_EQ(WW.SampleReg, WG.SampleReg) << At;
    EXPECT_EQ(WW.Dispatched, WG.Dispatched) << At;
    EXPECT_EQ(WW.Effective, WG.Effective) << At;
    EXPECT_EQ(WW.Taken, WG.Taken) << At;
    EXPECT_EQ(WW.FirstEffectiveStep, WG.FirstEffectiveStep) << At;
    EXPECT_EQ(WW.Sampled, WG.Sampled) << At;
    EXPECT_EQ(WW.FirstValue, WG.FirstValue) << At;
  }
}

TEST(InterpreterParity, EveryRunMatchesTheReferenceAtEveryStepCap) {
  auto Ref = [](const Function &F, reference::Memory &M,
                const std::vector<RegBinding> &R, const InterpOptions &O) {
    return reference::interpret(F, M, R, O);
  };
  auto Got = [](const Function &F, Memory &M, const std::vector<RegBinding> &R,
                const InterpOptions &O) { return interpret(F, M, R, O); };
  size_t Runs = 0, Watched = 0;
  uint64_t Steps = 0;
  for (const Case &C : corpus()) {
    for (uint64_t Cap : {uint64_t(1), uint64_t(7), uint64_t(1000),
                         DefaultMaxSteps}) {
      std::string Where = C.Name + " cap " + std::to_string(Cap);
      Observed Want = runWith<reference::Memory>(C, Cap, true, Ref);
      expectSame(C, Want, runWith<Memory>(C, Cap, true, Got), Where);
      ++Runs;
      Steps += Want.Result.Steps;
      for (const OpWatch &W : Want.Watches)
        Watched += W.Dispatched != 0;
    }
    // The uninstrumented run takes no profile, trace or watch work.
    Observed Want = runWith<reference::Memory>(C, DefaultMaxSteps, false, Ref);
    expectSame(C, Want, runWith<Memory>(C, DefaultMaxSteps, false, Got),
               C.Name + " plain");
    ++Runs;
  }
  EXPECT_GT(Watched, 0u);
  std::printf("interpreter parity: %zu cases, %zu runs, %llu steps, %zu "
              "watches dispatched\n",
              corpus().size(), Runs, static_cast<unsigned long long>(Steps),
              Watched);
}

/// Final states of two halted runs that differ only in memory.
struct MemoryPair {
  std::vector<std::pair<int64_t, int64_t>> A, B;
};

TEST(InterpreterParity, MemoryVerdictsKeepTheReferenceText) {
  std::unique_ptr<Function> FA = parseFunctionOrDie(R"(
func @a {
  observable r1
block @A:
  halt
}
)");
  std::unique_ptr<Function> FB = parseFunctionOrDie(R"(
func @b {
  observable r1
block @A:
  halt
}
)");
  const int64_t Min = std::numeric_limits<int64_t>::min();
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const std::vector<MemoryPair> Pairs = {
      // Equivalent: a written zero against an unwritten cell.
      {{{5, 0}}, {}},
      {{{5, 0}, {7, 3}}, {{7, 3}}},
      {{{-3, 0}, {Min, 0}, {Max, 0}}, {{1 << 20, 0}}},
      // A nonzero against unwritten, in a page both sides have.
      {{{5, 0}, {7, 3}}, {{5, 0}}},
      // Negative addresses: the lowest divergence wins.
      {{{-1, 4}, {-17, 2}, {-100000, 0}}, {{-1, 4}, {-17, 9}}},
      {{{-1, 4}}, {{-1, 5}, {-16, 0}}},
      // Divergences in pages only one side has.
      {{{0, 1}, {1000, 5}}, {{0, 1}}},
      {{{-32, 7}, {3, 3}}, {{48, 1}, {3, 3}}},
      {{{64, 0}, {65, 1}}, {{-64, 2}}},
      // Extreme addresses.
      {{{Min, 1}}, {{Max, 1}}},
      {{{Max, 2}, {Max - 15, 0}}, {{Max, 3}}},
      {{{Min, 0}, {Min + 15, 9}}, {{Min + 16, 1}}},
  };
  for (size_t I = 0; I < Pairs.size(); ++I) {
    const MemoryPair &P = Pairs[I];
    reference::RunState RA, RB;
    RunState SA, SB;
    std::vector<StoreEvent> StoresA, StoresB;
    for (const auto &[Addr, Value] : P.A) {
      RA.Mem.store(Addr, Value);
      SA.Mem.store(Addr, Value);
      StoresA.push_back(StoreEvent{OpId(StoresA.size()), Addr, Value});
    }
    for (const auto &[Addr, Value] : P.B) {
      RB.Mem.store(Addr, Value);
      SB.Mem.store(Addr, Value);
      StoresB.push_back(StoreEvent{OpId(StoresB.size()), Addr, Value});
    }
    for (RunResult *R : {&RA.Result, &RB.Result, &SA.Result, &SB.Result}) {
      R->St = RunResult::Status::Halted;
      R->Observed = {0};
    }
    for (bool Traced : {false, true}) {
      const std::vector<StoreEvent> *TA = Traced ? &StoresA : nullptr;
      const std::vector<StoreEvent> *TB = Traced ? &StoresB : nullptr;
      for (bool Swap : {false, true}) {
        EquivResult Want =
            Swap ? reference::compareRuns(*FB, RB, *FA, RA, TB, TA)
                 : reference::compareRuns(*FA, RA, *FB, RB, TA, TB);
        EquivResult Got = Swap ? compareRuns(*FB, SB, *FA, SA, TB, TA)
                               : compareRuns(*FA, SA, *FB, SB, TA, TB);
        std::string Where = "pair " + std::to_string(I) +
                            (Traced ? " traced" : "") +
                            (Swap ? " swapped" : "");
        EXPECT_EQ(Want.Equivalent, Got.Equivalent) << Where;
        EXPECT_EQ(Want.Kind, Got.Kind) << Where;
        EXPECT_EQ(Want.Detail, Got.Detail) << Where;
      }
    }
  }
}

} // namespace
