//===- fuzz/Generator.cpp - Random program generation and mutation --------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Generator.h"

#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "workloads/SyntheticProgram.h"

#include <algorithm>
#include <string>

using namespace cpr;

namespace {

/// Address-space layout of generated programs. The condition-data table
/// is read-only (so its distinct alias class is truthful) and disjoint
/// from the output window.
constexpr int64_t DataBase = 30'000'000;
constexpr int64_t OutBase = 40'000'000;
constexpr int64_t DataMask = 255; ///< table size 256 words
constexpr int64_t OutWindow = 128;
constexpr int64_t CondRange = 1000;
constexpr uint8_t AliasData = 1;
constexpr uint8_t AliasOut = 2;

/// Step budget for screening mutants: generous versus the iteration caps
/// of generated programs, so only genuinely runaway mutants are culled.
constexpr uint64_t ScreenStepBudget = 20'000'000;

/// Generation state threaded through the region grammar.
struct GenState {
  Function &F;
  IRBuilder B;
  RNG &Rng;
  const GeneratorConfig &Cfg;

  Reg Ofs; ///< data-table offset, masked to the table in loop tails
  Reg Out; ///< output-window base (initial-register bound)
  Reg Acc; ///< observable accumulator

  std::vector<Reg> Pool;  ///< GPR values usable as sources
  std::vector<Reg> Preds; ///< predicates usable as guards (current block)

  /// A side-exit stub whose body is emitted at the end, once its rejoin
  /// block exists.
  struct StubReq {
    Block *Stub;
    Block *Rejoin;
    unsigned Flavor;
  };
  std::vector<StubReq> Pending; ///< awaiting a rejoin block
  std::vector<StubReq> Done;    ///< rejoin fixed

  uint64_t IterProduct = 1; ///< product of enclosing trip counts
  size_t ChainLen = 0;      ///< chain blocks so far (layout prefix)
  unsigned NextName = 0;
  unsigned NextStub = 0;

  GenState(Function &F, RNG &Rng, const GeneratorConfig &Cfg)
      : F(F), B(F), Rng(Rng), Cfg(Cfg) {}
};

/// Starts the next fall-through block of the main chain. Chain blocks
/// occupy the layout prefix; stub blocks accumulate behind them, so a
/// new chain block is an *insert*, not an append. Stubs pending since
/// the previous chain block rejoin here (guaranteeing forward progress:
/// every rejoin target is created after the exiting branch).
Block &startChainBlock(GenState &S) {
  Block &Blk = S.F.insertBlock(S.ChainLen++,
                               "B" + std::to_string(S.NextName++));
  for (GenState::StubReq &Req : S.Pending) {
    Req.Rejoin = &Blk;
    S.Done.push_back(Req);
  }
  S.Pending.clear();
  S.B.setInsertBlock(Blk);
  // Predicates are only used as guards within their defining block, so
  // the transform sees block-local predicate lifetimes.
  S.Preds.clear();
  return Blk;
}

Reg pickSrc(GenState &S) {
  return S.Pool[S.Rng.nextBelow(S.Pool.size())];
}

Reg pickGuard(GenState &S) {
  if (!S.Preds.empty() && S.Rng.nextBool(S.Cfg.PredicateDensity))
    return S.Preds[S.Rng.nextBelow(S.Preds.size())];
  return Reg::truePred();
}

/// Emits one random non-branch operation into the current block.
///
/// Value-magnitude discipline (keeps every intermediate far from int64
/// overflow, which matters under UBSan): two-register sources only
/// combine through bitwise/min/max opcodes; Add/Sub always take a small
/// immediate second source, so magnitudes grow at most linearly in the
/// static operation count.
void genOp(GenState &S) {
  unsigned Kind = static_cast<unsigned>(S.Rng.nextBelow(100));
  if (Kind < 45) { // arithmetic
    Reg A = pickSrc(S);
    Reg Dst;
    if (S.Rng.nextBool(0.5)) {
      static const Opcode BitOps[] = {Opcode::And, Opcode::Or, Opcode::Xor,
                                      Opcode::Min, Opcode::Max};
      Dst = S.B.emitArith(BitOps[S.Rng.nextBelow(5)], Operand::reg(A),
                          Operand::reg(pickSrc(S)), pickGuard(S));
    } else {
      Dst = S.B.emitArith(S.Rng.nextBool(0.5) ? Opcode::Add : Opcode::Sub,
                          Operand::reg(A),
                          Operand::imm(S.Rng.nextRange(-1024, 1024)),
                          pickGuard(S));
    }
    S.Pool.push_back(Dst);
    if (S.Pool.size() > 12)
      S.Pool.erase(S.Pool.begin() +
                   static_cast<ptrdiff_t>(S.Rng.nextBelow(S.Pool.size())));
  } else if (Kind < 62) { // load
    bool FromOut = S.Rng.nextBool(0.3);
    int64_t Base = FromOut ? OutBase : DataBase;
    int64_t Off = S.Rng.nextRange(0, FromOut ? OutWindow - 1 : 63);
    Reg T = S.B.emitArith(Opcode::Add, Operand::reg(S.Ofs),
                          Operand::imm(Off));
    Reg A = S.B.emitArith(Opcode::Add, Operand::reg(T), Operand::imm(Base));
    uint8_t AC = S.Rng.nextBool(S.Cfg.AliasChaos)
                     ? uint8_t{0}
                     : (FromOut ? AliasOut : AliasData);
    S.Pool.push_back(S.B.emitLoad(A, AC, pickGuard(S)));
  } else if (Kind < 75) { // store (to the output window only)
    Reg A = S.B.emitArith(Opcode::Add, Operand::reg(S.Out),
                          Operand::imm(S.Rng.nextRange(0, OutWindow - 1)));
    uint8_t AC = S.Rng.nextBool(S.Cfg.AliasChaos) ? uint8_t{0} : AliasOut;
    S.B.emitStore(A, Operand::reg(pickSrc(S)), AC, pickGuard(S));
  } else if (Kind < 87) { // compare-to-predicate over a pool value
    static const CompareCond Conds[] = {CompareCond::LT, CompareCond::LE,
                                        CompareCond::GT, CompareCond::GE,
                                        CompareCond::EQ, CompareCond::NE};
    CompareCond C = Conds[S.Rng.nextBelow(6)];
    Operand Rhs = S.Rng.nextBool(0.5)
                      ? Operand::imm(S.Rng.nextRange(-64, CondRange))
                      : Operand::reg(pickSrc(S));
    if (S.Rng.nextBool(0.3)) {
      auto [P1, P2] = S.B.emitCmpp2(C, Operand::reg(pickSrc(S)), Rhs,
                                    CmppAction::UN, CmppAction::UC);
      S.Preds.push_back(P1);
      S.Preds.push_back(P2);
    } else {
      S.Preds.push_back(S.B.emitCmpp1(C, Operand::reg(pickSrc(S)), Rhs,
                                      CmppAction::UN));
    }
  } else if (Kind < 95) { // fold into the observable accumulator
    S.B.emitArithTo(S.Acc, Opcode::Xor, Operand::reg(S.Acc),
                    Operand::reg(pickSrc(S)), pickGuard(S));
  } else { // floating-point filler, result stored so it stays live
    Reg FA = S.F.newReg(RegClass::FPR);
    S.B.emitMovTo(FA, Operand::imm(S.Rng.nextRange(1, 8)));
    Reg FB = S.B.emitArith(Opcode::FAdd, Operand::reg(FA), Operand::reg(FA));
    Reg A = S.B.emitArith(Opcode::Add, Operand::reg(S.Out),
                          Operand::imm(OutWindow - 1));
    S.B.emitStore(A, Operand::reg(FB), AliasOut);
  }
}

/// Emits a biased interior side exit: load a condition word, compare,
/// branch to a stub created behind the chain. Taken when the word is
/// *above* the threshold, so unwritten (zero) cells fall through.
void genSideExit(GenState &S) {
  Reg T = S.B.emitArith(Opcode::Add, Operand::reg(S.Ofs),
                        Operand::imm(S.Rng.nextRange(0, 63)));
  Reg A = S.B.emitArith(Opcode::Add, Operand::reg(T),
                        Operand::imm(DataBase));
  uint8_t AC = S.Rng.nextBool(S.Cfg.AliasChaos) ? uint8_t{0} : AliasData;
  Reg V = S.B.emitLoad(A, AC);
  double FallThrough;
  if (S.Rng.nextBool(S.Cfg.UnbiasedFrac))
    FallThrough = 0.45 + 0.10 * S.Rng.nextDouble();
  else
    FallThrough = std::min(
        0.999, std::max(0.5, S.Cfg.FallThroughBias +
                                 0.08 * (S.Rng.nextDouble() - 0.5)));
  int64_t Thresh = static_cast<int64_t>(
      static_cast<double>(CondRange) * FallThrough);
  Reg PT = S.B.emitCmpp1(CompareCond::GE, Operand::reg(V),
                         Operand::imm(Thresh), CmppAction::UN);
  Block &Stub = S.F.addBlock("S" + std::to_string(S.NextStub++));
  S.Pending.push_back(
      {&Stub, nullptr, static_cast<unsigned>(S.Rng.nextBelow(4))});
  S.B.emitBranchTo(Stub, PT);
}

/// One chain block: straight-line runs separated by interior side exits
/// (superblock shape -- several branches per block is what CPR block
/// formation feeds on).
void genRun(GenState &S) {
  startChainBlock(S);
  unsigned Exits = static_cast<unsigned>(S.Rng.nextBelow(4));
  for (unsigned E = 0; E <= Exits; ++E) {
    unsigned N = 1 + static_cast<unsigned>(S.Rng.nextBelow(S.Cfg.MaxOpsPerRun));
    for (unsigned K = 0; K < N; ++K)
      genOp(S);
    if (E < Exits)
      genSideExit(S);
  }
}

void genRegion(GenState &S, unsigned Depth);

/// A counted loop: init block, head, recursive body, tail. The tail is
/// the only place the trip register is decremented, and every side exit
/// inside the body rejoins a body block before the tail, so each
/// iteration decrements exactly once and the loop terminates.
void genLoop(GenState &S, unsigned Depth) {
  uint64_t Cap = S.Cfg.MaxIterationProduct / S.IterProduct;
  uint64_t Hi = std::min<uint64_t>(S.Cfg.MaxTrips, Cap);
  if (Hi < S.Cfg.MinTrips) {
    genRun(S);
    return;
  }
  uint64_t Trips =
      S.Cfg.MinTrips + S.Rng.nextBelow(Hi - S.Cfg.MinTrips + 1);
  startChainBlock(S); // trip init (also flushes pending stub rejoins)
  Reg Trip = S.F.newReg(RegClass::GPR);
  S.B.emitMovTo(Trip, Operand::imm(static_cast<int64_t>(Trips)));
  Block &Head = startChainBlock(S);
  S.IterProduct *= Trips;
  genRegion(S, Depth + 1);
  startChainBlock(S); // loop tail
  int64_t Stride = S.Rng.nextRange(1, 4);
  Reg T = S.B.emitArith(Opcode::Add, Operand::reg(S.Ofs),
                        Operand::imm(Stride));
  S.B.emitArithTo(S.Ofs, Opcode::And, Operand::reg(T),
                  Operand::imm(DataMask));
  S.B.emitArithTo(Trip, Opcode::Sub, Operand::reg(Trip), Operand::imm(1));
  Reg PM = S.B.emitCmpp1(CompareCond::GT, Operand::reg(Trip),
                         Operand::imm(0), CmppAction::UN);
  S.B.emitBranchTo(Head, PM);
  S.IterProduct /= Trips;
}

void genRegion(GenState &S, unsigned Depth) {
  unsigned Items =
      1 + static_cast<unsigned>(S.Rng.nextBelow(S.Cfg.MaxItemsPerRegion));
  for (unsigned I = 0; I < Items; ++I) {
    if (S.F.numBlocks() >= S.Cfg.MaxBlocks)
      break; // soft size cap; see GeneratorConfig::MaxBlocks
    bool CanLoop =
        Depth < S.Cfg.MaxLoopDepth &&
        S.IterProduct * S.Cfg.MinTrips <= S.Cfg.MaxIterationProduct;
    if (CanLoop && S.Rng.nextBool(0.35))
      genLoop(S, Depth);
    else
      genRun(S);
  }
}

KernelProgram generateFromGrammar(uint64_t Seed, const GeneratorConfig &Cfg,
                                  RNG &Rng) {
  KernelProgram P;
  P.Description = "fuzz grammar program, seed " + std::to_string(Seed);
  P.Func = std::make_unique<Function>("fuzz_" + std::to_string(Seed));
  Function &F = *P.Func;
  GenState S(F, Rng, Cfg);

  Block &Entry = F.addBlock("Entry");
  S.ChainLen = 1;
  S.B.setInsertBlock(Entry);
  S.Ofs = F.newReg(RegClass::GPR);
  S.Out = F.newReg(RegClass::GPR);
  S.Acc = F.newReg(RegClass::GPR);
  S.B.emitMovTo(S.Acc, Operand::imm(0));
  S.Pool.push_back(S.Ofs);
  for (unsigned I = 0; I < 3; ++I)
    S.Pool.push_back(S.B.emitMovImm(Rng.nextRange(-100, 100)));
  F.observableRegs().push_back(S.Acc);

  genRegion(S, 0);

  // Final chain block: fold, publish, leave. Its unconditional branch to
  // the exit keeps control from falling into the stub region behind it.
  startChainBlock(S);
  S.B.emitArithTo(S.Acc, Opcode::Xor, Operand::reg(S.Acc),
                  Operand::reg(pickSrc(S)));
  Reg OutSlot = S.B.emitArith(Opcode::Add, Operand::reg(S.Out),
                              Operand::imm(0));
  S.B.emitStore(OutSlot, Operand::reg(S.Acc), AliasOut);
  Block &Exit = F.addBlock("Exit");
  S.B.emitBranchTo(Exit, Reg::truePred());
  for (GenState::StubReq &Req : S.Pending) { // exits in the final block
    Req.Rejoin = &Exit;
    S.Done.push_back(Req);
  }
  S.Pending.clear();

  // Stub bodies: a little observable off-trace work, then rejoin.
  for (const GenState::StubReq &Req : S.Done) {
    S.B.setInsertBlock(*Req.Stub);
    S.B.emitArithTo(S.Acc, Opcode::Add, Operand::reg(S.Acc),
                    Operand::imm(1 + static_cast<int64_t>(Req.Flavor)));
    if (Req.Flavor & 1) {
      Reg A = S.B.emitArith(Opcode::Add, Operand::reg(S.Out),
                            Operand::imm(96 + Req.Flavor));
      S.B.emitStore(A, Operand::reg(S.Acc), AliasOut);
    }
    S.B.emitBranchTo(*Req.Rejoin, Reg::truePred());
  }

  S.B.setInsertBlock(Exit);
  S.B.emitHalt();

  verifyOrDie(F, "fuzz-generated program");

  // Condition data: uniform words over the whole (small) table.
  for (int64_t I = 0; I <= DataMask; ++I)
    P.InitMem.store(DataBase + I, Rng.nextRange(0, CondRange - 1));
  P.InitRegs = {{S.Ofs, Rng.nextRange(0, DataMask)}, {S.Out, OutBase}};
  return P;
}

} // namespace

KernelProgram cpr::generateProgram(uint64_t Seed, const GeneratorConfig &Cfg) {
  RNG Rng(Seed * 0x9e3779b97f4a7c15ULL + 0xfeedULL);
  if (Rng.nextBool(Cfg.SyntheticFrac)) {
    SyntheticParams SP = randomSyntheticParams(Rng);
    // Keep the SPEC-shaped family as quick as the grammar family.
    SP.Trips = std::min(SP.Trips, 32u);
    return buildSyntheticProgram("fuzz_syn_" + std::to_string(Seed), SP);
  }
  return generateFromGrammar(Seed, Cfg, Rng);
}

//===----------------------------------------------------------------------===//
// Mutation
//===----------------------------------------------------------------------===//

namespace {

/// Collects (block index, op index) of every non-control operation.
std::vector<std::pair<size_t, size_t>> nonControlSites(const Function &F) {
  std::vector<std::pair<size_t, size_t>> Sites;
  for (size_t BI = 0; BI < F.numBlocks(); ++BI) {
    const Block &Blk = F.block(BI);
    for (size_t OI = 0; OI < Blk.size(); ++OI)
      if (!Blk.ops()[OI].isControl())
        Sites.push_back({BI, OI});
  }
  return Sites;
}

/// Applies one random mutation to \p P in place. Returns false when the
/// drawn mutation has no applicable site. Mutations are conservative
/// about what they tell the compiler: alias classes only move toward
/// class 0 (more conservative), so a surviving mismatch is always a
/// compiler bug, never a lying annotation.
bool applyOneMutation(KernelProgram &P, RNG &Rng) {
  Function &F = *P.Func;
  unsigned Kind = static_cast<unsigned>(Rng.nextBelow(8));
  switch (Kind) {
  case 0: { // tweak an immediate operand
    std::vector<Operand *> Imms;
    for (size_t BI = 0; BI < F.numBlocks(); ++BI)
      for (Operation &Op : F.block(BI).ops())
        if (!Op.isControl())
          for (Operand &Src : Op.srcs())
            if (Src.isImm())
              Imms.push_back(&Src);
    if (Imms.empty())
      return false;
    Operand &Target = *Imms[Rng.nextBelow(Imms.size())];
    int64_t V = Target.getImm();
    switch (Rng.nextBelow(4)) {
    case 0:
      V += Rng.nextRange(-8, 8);
      break;
    case 1:
      V = 0;
      break;
    case 2:
      V = 1;
      break;
    default:
      V = -V;
      break;
    }
    // Keep magnitudes tame so arithmetic cannot creep toward overflow.
    V = std::max<int64_t>(-(1 << 24), std::min<int64_t>(1 << 24, V));
    Target = Operand::imm(V);
    return true;
  }
  case 1: { // delete a non-control operation
    auto Sites = nonControlSites(F);
    if (Sites.empty())
      return false;
    auto [BI, OI] = Sites[Rng.nextBelow(Sites.size())];
    auto &Ops = F.block(BI).ops();
    Ops.erase(Ops.begin() + static_cast<ptrdiff_t>(OI));
    return true;
  }
  case 2: { // duplicate a non-control operation (fresh id)
    auto Sites = nonControlSites(F);
    if (Sites.empty())
      return false;
    auto [BI, OI] = Sites[Rng.nextBelow(Sites.size())];
    auto &Ops = F.block(BI).ops();
    Operation Copy = Ops[OI];
    Copy.setId(F.newOpId());
    Ops.insert(Ops.begin() + static_cast<ptrdiff_t>(OI) + 1, Copy);
    return true;
  }
  case 3: { // swap two adjacent non-control operations
    auto Sites = nonControlSites(F);
    std::vector<std::pair<size_t, size_t>> Pairs;
    for (auto [BI, OI] : Sites)
      if (OI + 1 < F.block(BI).size() &&
          !F.block(BI).ops()[OI + 1].isControl())
        Pairs.push_back({BI, OI});
    if (Pairs.empty())
      return false;
    auto [BI, OI] = Pairs[Rng.nextBelow(Pairs.size())];
    std::swap(F.block(BI).ops()[OI], F.block(BI).ops()[OI + 1]);
    return true;
  }
  case 4: { // demote a memory operation's alias class to 0
    std::vector<Operation *> Mems;
    for (size_t BI = 0; BI < F.numBlocks(); ++BI)
      for (Operation &Op : F.block(BI).ops())
        if ((Op.isLoad() || Op.isStore()) && Op.getAliasClass() != 0)
          Mems.push_back(&Op);
    if (Mems.empty())
      return false;
    Mems[Rng.nextBelow(Mems.size())]->setAliasClass(0);
    return true;
  }
  case 5: { // flip a cmpp condition
    std::vector<Operation *> Cmps;
    for (size_t BI = 0; BI < F.numBlocks(); ++BI)
      for (Operation &Op : F.block(BI).ops())
        if (Op.isCmpp())
          Cmps.push_back(&Op);
    if (Cmps.empty())
      return false;
    static const CompareCond Conds[] = {CompareCond::LT, CompareCond::LE,
                                        CompareCond::GT, CompareCond::GE,
                                        CompareCond::EQ, CompareCond::NE};
    Cmps[Rng.nextBelow(Cmps.size())]->setCond(Conds[Rng.nextBelow(6)]);
    return true;
  }
  case 6: { // tweak an initial register value
    if (P.InitRegs.empty())
      return false;
    RegBinding &B = P.InitRegs[Rng.nextBelow(P.InitRegs.size())];
    int64_t V = B.Value + Rng.nextRange(-64, 64);
    B.Value = std::max<int64_t>(-(1LL << 30),
                                std::min<int64_t>(1LL << 30, V));
    return true;
  }
  default: { // tweak an initial memory cell
    // Pick the k-th lowest written address.
    std::vector<std::pair<int64_t, int64_t>> Cells =
        P.InitMem.sortedCells();
    if (Cells.empty())
      return false;
    int64_t Addr = Cells[Rng.nextBelow(Cells.size())].first;
    P.InitMem.store(Addr, Rng.nextRange(0, CondRange - 1));
    return true;
  }
  }
}

/// A mutant is viable when it still verifies and its baseline halts
/// within the screening budget (no mutation may turn the oracle's
/// baseline run into a hang).
bool screenMutant(const KernelProgram &P) {
  if (!verifyFunction(*P.Func).empty())
    return false;
  Memory Mem = P.InitMem;
  InterpOptions Opts;
  Opts.MaxSteps = ScreenStepBudget;
  RunResult R = interpret(*P.Func, Mem, P.InitRegs, Opts);
  return R.halted();
}

} // namespace

KernelProgram ProgramMutator::mutate(const KernelProgram &P, RNG &Rng) const {
  for (unsigned Attempt = 0; Attempt < 16; ++Attempt) {
    KernelProgram Candidate = P.clone();
    unsigned Mutations = 1 + static_cast<unsigned>(Rng.nextBelow(3));
    bool Applied = false;
    for (unsigned I = 0; I < Mutations; ++I)
      Applied |= applyOneMutation(Candidate, Rng);
    if (Applied && screenMutant(Candidate)) {
      Candidate.Description = P.Description + " (mutated)";
      return Candidate;
    }
  }
  return P.clone(); // no viable mutation found
}
