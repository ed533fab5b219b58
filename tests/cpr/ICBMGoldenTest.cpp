//===- tests/cpr/ICBMGoldenTest.cpp - Byte-exact ICBM output --------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
//
// Pins the ICBM driver's output byte for byte. For every program the test
// profiles the baseline, runs strict runControlCPR with default options on
// a clone, and compares a 64-bit FNV-1a digest of the printed treated
// function plus every CPRResult counter against a recorded constant. A
// change that is meant to be output-neutral (a faster analysis, a cache)
// must leave every digest as it is; a deliberate change of ICBM's output
// re-records them from the printed mismatches.
//
//===----------------------------------------------------------------------===//

#include "cpr/ControlCPR.h"

#include "fuzz/Generator.h"
#include "interp/Profiler.h"
#include "ir/IRPrinter.h"
#include "support/Hash.h"
#include "workloads/BenchmarkSuite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

using namespace cpr;

namespace {

/// Digest of the treated function and of every CPRResult counter.
uint64_t icbmDigest(const KernelProgram &P) {
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
  std::unique_ptr<Function> T = P.Func->clone();
  CPRResult R = runControlCPR(*T, Prof, CPROptions());
  Hasher H;
  H.str(printFunction(*T));
  for (unsigned V :
       {R.RegionsProcessed, R.CPRBlocksFormed, R.CPRBlocksTransformed,
        R.TakenVariants, R.BranchesCovered, R.Promoted, R.Demoted,
        R.LookaheadsInserted, R.OpsMovedOffTrace, R.OpsSplit,
        R.DCE.OpsRemoved, R.DCE.DestsRemoved, R.BlocksRolledBack,
        R.RegionsRolledBack, R.RegionsSkippedBudget})
    H.u64(V);
  for (unsigned V : R.StopReasons)
    H.u64(V);
  H.u64(R.BudgetExhausted ? 1 : 0);
  return H.digest();
}

/// Checks \p P against the digest recorded under \p Name in \p Golden.
void expectDigest(const std::map<std::string, uint64_t> &Golden,
                  const std::string &Name, const KernelProgram &P) {
  uint64_t Got = icbmDigest(P);
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "0x%016llxULL",
                static_cast<unsigned long long>(Got));
  auto It = Golden.find(Name);
  if (It == Golden.end())
    ADD_FAILURE() << "no digest recorded for " << Name << ": new digest "
                  << Hex;
  else
    EXPECT_EQ(Got, It->second) << Name << ": new digest " << Hex;
}

TEST(ICBMGoldenTest, PaperSuite) {
  static const std::map<std::string, uint64_t> Golden = {
      {"008.espresso", 0x4b352820266ff3aaULL},
      {"022.li", 0x16705ddd6b243198ULL},
      {"023.eqntott", 0xae4c08391fe15a6cULL},
      {"026.compress", 0x223bd45902173b6fULL},
      {"056.ear", 0x8fcc6adca444a532ULL},
      {"072.sc", 0x663796eb000d2f4aULL},
      {"085.cc1", 0x4666ea12ed1c1a16ULL},
      {"099.go", 0x7196192daa6f8a98ULL},
      {"124.m88ksim", 0xea5fad5bdb968e14ULL},
      {"126.gcc", 0x1b1a348b1eb81d36ULL},
      {"129.compress", 0x70c7294c66cd2cc6ULL},
      {"130.li", 0x5e5ac4a564d7e998ULL},
      {"132.ijpeg", 0xd70132830c42a74cULL},
      {"134.perl", 0x89482853e8340dadULL},
      {"147.vortex", 0x119596d64d9a7dbaULL},
      {"cccp", 0x6aaeafde9cdb645bULL},
      {"cmp", 0x9f7f61a327413e0bULL},
      {"eqn", 0x50e4147fa31d66aeULL},
      {"grep", 0x5de272212c48e38eULL},
      {"lex", 0xa2563b8596453202ULL},
      {"strcpy", 0xa2523ceab79d837dULL},
      {"tbl", 0x10174b59e6a8319bULL},
      {"wc", 0x282cb7502bd1ffc5ULL},
      {"yacc", 0xf10c384274a41fb3ULL},
  };
  for (const BenchmarkSpec &S : paperBenchmarkSuite())
    expectDigest(Golden, S.Name, S.Build());
}

TEST(ICBMGoldenTest, LadderPrograms) {
  // The benchmark's scaling ladder: two generator shapes, three seeds each.
  static const std::map<std::string, uint64_t> Golden = {
      {"80/8#1000", 0xa64bd4fc3c151871ULL},
      {"80/8#1002", 0xec80be157b0c7727ULL},
      {"80/8#1003", 0xdbce6349a5413e2aULL},
      {"120/12#1000", 0x84f806b6ba284ff2ULL},
      {"120/12#1008", 0x195af6f94a5852f4ULL},
      {"120/12#1001", 0x83302c8f7664f9afULL},
  };
  struct Rung {
    unsigned MaxBlocks, MaxItemsPerRegion;
    std::vector<uint64_t> Seeds;
  };
  for (const Rung &R : {Rung{80, 8, {1000, 1002, 1003}},
                        Rung{120, 12, {1000, 1008, 1001}}}) {
    GeneratorConfig Cfg;
    Cfg.MaxBlocks = R.MaxBlocks;
    Cfg.MaxItemsPerRegion = R.MaxItemsPerRegion;
    Cfg.SyntheticFrac = 0.0;
    for (uint64_t Seed : R.Seeds)
      expectDigest(Golden,
                   std::to_string(R.MaxBlocks) + "/" +
                       std::to_string(R.MaxItemsPerRegion) + "#" +
                       std::to_string(Seed),
                   generateProgram(Seed, Cfg));
  }
}

TEST(ICBMGoldenTest, GeneratedPrograms) {
  // Region-grammar programs at the shapes the liveness tests use.
  static const std::map<std::string, uint64_t> Golden = {
      {"40#1", 0x9c96e92c16c13327ULL},
      {"40#2", 0x0373b9c01b8c75f7ULL},
      {"40#3", 0xdd1a099c189551b9ULL},
      {"40#4", 0x2acfcad61c91032fULL},
      {"40#5", 0x43cf005a1535f192ULL},
      {"120#1", 0x9c96e92c16c13327ULL},
      {"120#2", 0x6a867dc419ee920bULL},
      {"120#3", 0x59cd33da3e7c3ce9ULL},
      {"120#4", 0x9e41af9c2c2b9648ULL},
      {"120#5", 0xdda374efa8f9f54fULL},
  };
  for (unsigned MaxBlocks : {40u, 120u}) {
    GeneratorConfig Cfg;
    Cfg.MaxBlocks = MaxBlocks;
    Cfg.MaxLoopDepth = 3;
    Cfg.MaxItemsPerRegion = 8;
    Cfg.SyntheticFrac = 0.0;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed)
      expectDigest(Golden,
                   std::to_string(MaxBlocks) + "#" + std::to_string(Seed),
                   generateProgram(Seed * 7919, Cfg));
  }
}

} // namespace
