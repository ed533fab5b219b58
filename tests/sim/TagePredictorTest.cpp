//===- tests/sim/TagePredictorTest.cpp - TAGE-SC-L predictor tests --------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/frontend/TAGE.h"

#include "pipeline/PipelineRun.h"
#include "sim/BranchPredictor.h"
#include "support/Hash.h"
#include "workloads/BenchmarkSuite.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

TEST(TagePredictorTest, RegistryIsTheSingleSourceOfTruth) {
  const std::vector<PredictorInfo> &Reg = predictorRegistry();
  ASSERT_EQ(Reg.size(), 5u);
  EXPECT_EQ(Reg.back().Kind, PredictorKind::TageScL);
  EXPECT_STREQ(Reg.back().Name, "tage-sc-l");

  // Names, parsing, enumeration, and the factory all agree with it.
  EXPECT_NE(predictorNamesList().find("tage-sc-l"), std::string::npos);
  EXPECT_EQ(allPredictorKinds().size(), Reg.size());
  for (const PredictorInfo &PI : Reg) {
    EXPECT_STREQ(predictorKindName(PI.Kind), PI.Name);
    PredictorKind K;
    ASSERT_TRUE(parsePredictorKind(PI.Name, K));
    EXPECT_EQ(K, PI.Kind);
  }
  std::unique_ptr<BranchPredictor> P = makePredictor(PredictorKind::TageScL);
  EXPECT_STREQ(P->name(), "tage-sc-l");
}

TEST(TagePredictorTest, HistoryLengthsFormAGeometricSeries) {
  std::vector<unsigned> L = tageHistoryLengths(4, 4, 64);
  ASSERT_EQ(L.size(), 4u);
  EXPECT_EQ(L.front(), 4u);
  EXPECT_EQ(L.back(), 64u);
  for (size_t I = 1; I < L.size(); ++I)
    EXPECT_LT(L[I - 1], L[I]);

  // Degenerate shapes stay well-formed: one table uses the longest
  // history; colliding rounds are forced strictly increasing.
  EXPECT_EQ(tageHistoryLengths(1, 4, 64), std::vector<unsigned>{64u});
  std::vector<unsigned> Tight = tageHistoryLengths(8, 2, 4);
  ASSERT_EQ(Tight.size(), 8u);
  for (size_t I = 1; I < Tight.size(); ++I)
    EXPECT_LT(Tight[I - 1], Tight[I]);
  EXPECT_TRUE(tageHistoryLengths(0, 4, 64).empty());
}

TEST(TagePredictorTest, WarmsUpQuicklyOnABiasedBranch) {
  std::unique_ptr<BranchPredictor> Pred =
      makePredictor(PredictorKind::TageScL);
  for (int I = 0; I < 200; ++I)
    Pred->observe(5, true);
  EXPECT_EQ(Pred->stats().Lookups, 200u);
  EXPECT_LE(Pred->stats().Mispredicts, 4u);

  // Hysteresis survives one anomalous fall-through.
  Pred->observe(5, false);
  EXPECT_TRUE(Pred->predict(5));
}

TEST(TagePredictorTest, TaggedTablesLearnPatternsBeyondGshareHistory) {
  // A 20-long repeating pattern needs more than gshare's 8 history bits
  // to disambiguate; TAGE's longer geometric tables capture it. The side
  // predictors are disabled so the tagged tables alone get the credit.
  const unsigned Period = 20;
  auto misses = [&](std::unique_ptr<BranchPredictor> P) {
    for (unsigned I = 0; I < 4000; ++I)
      P->observe(7, (I % Period) < 3);
    return P->stats().Mispredicts;
  };
  PredictorConfig TC;
  TC.TageUseSC = false;
  TC.TageUseLoop = false;
  uint64_t Tage = misses(makePredictor(PredictorKind::TageScL, TC));
  uint64_t Gshare = misses(makePredictor(PredictorKind::Gshare));
  EXPECT_LT(Tage, Gshare / 2);
  EXPECT_LT(Tage, 400u); // < 10% after warm-up
}

TEST(TagePredictorTest, LoopPredictorLocksOntoAFixedTripCount) {
  // 100 taken iterations then one exit: the trip count exceeds even the
  // longest tagged history (64 bits), so only the loop predictor can
  // anticipate the exit.
  const unsigned Trip = 100;
  auto misses = [&](bool UseLoop) {
    PredictorConfig C;
    C.TageUseLoop = UseLoop;
    std::unique_ptr<BranchPredictor> P =
        makePredictor(PredictorKind::TageScL, C);
    for (unsigned Run = 0; Run < 60; ++Run)
      for (unsigned I = 0; I < Trip + 1; ++I)
        P->observe(9, I < Trip);
    return P->stats().Mispredicts;
  };
  uint64_t WithLoop = misses(true);
  uint64_t WithoutLoop = misses(false);
  // Without the loop predictor every exit is a surprise (~60 misses at
  // minimum); with it, only the confidence-building prefix misses.
  EXPECT_GE(WithoutLoop, 55u);
  EXPECT_LE(WithLoop, WithoutLoop / 3);
}

TEST(TagePredictorTest, AntiCorrelatedBranchesLearnIndependently) {
  std::unique_ptr<BranchPredictor> Pred =
      makePredictor(PredictorKind::TageScL);
  for (int I = 0; I < 300; ++I) {
    Pred->observe(11, true);
    Pred->observe(23, false);
  }
  EXPECT_TRUE(Pred->predict(11));
  EXPECT_FALSE(Pred->predict(23));
  EXPECT_LE(Pred->stats().missRate(), 0.05);
}

TEST(TagePredictorTest, DeterministicAcrossInstances) {
  // Two independently constructed instances fed the same stream must make
  // identical predictions at every step -- the allocation policy is
  // deterministic by design (no random table choice).
  PredictorConfig C;
  std::unique_ptr<BranchPredictor> A = makePredictor(PredictorKind::TageScL, C);
  std::unique_ptr<BranchPredictor> B = makePredictor(PredictorKind::TageScL, C);
  uint64_t Lcg = 12345;
  for (int I = 0; I < 20000; ++I) {
    Lcg = Lcg * 6364136223846793005ull + 1442695040888963407ull;
    OpId Br = static_cast<OpId>(1 + (Lcg >> 33) % 37);
    bool Taken = ((Lcg >> 17) & 7) < 5 || Br % 3 == 0;
    ASSERT_EQ(A->observe(Br, Taken), B->observe(Br, Taken)) << "step " << I;
  }
  EXPECT_EQ(A->stats().Mispredicts, B->stats().Mispredicts);
}

TEST(TagePredictorTest, ResetClearsLearnedStateAndStats) {
  std::unique_ptr<BranchPredictor> Pred =
      makePredictor(PredictorKind::TageScL);
  for (int I = 0; I < 200; ++I)
    Pred->observe(3, true);
  ASSERT_TRUE(Pred->predict(3));
  Pred->reset();
  EXPECT_FALSE(Pred->predict(3)); // back to the not-taken cold bias
  EXPECT_EQ(Pred->stats().Lookups, 0u);
  EXPECT_EQ(Pred->stats().Mispredicts, 0u);

  // A reset predictor retrains exactly like a fresh one.
  std::unique_ptr<BranchPredictor> Fresh =
      makePredictor(PredictorKind::TageScL);
  for (int I = 0; I < 500; ++I) {
    bool Taken = I % 5 != 0;
    ASSERT_EQ(Pred->observe(3, Taken), Fresh->observe(3, Taken));
  }
}

TEST(TagePredictorTest, ExtremeConfigurationsAreClamped) {
  // Degenerate sizing must neither crash nor divide by zero: one table,
  // zero-ish widths, and an oversized table count (clamped to 16).
  PredictorConfig C;
  C.TageTables = 100;
  C.TageTableBits = 0;
  C.TageTagBits = 0;
  C.TageMinHistory = 0;
  C.TageMaxHistory = 1;
  C.LoopTableBits = 0;
  std::unique_ptr<BranchPredictor> P = makePredictor(PredictorKind::TageScL, C);
  for (int I = 0; I < 500; ++I)
    P->observe(static_cast<OpId>(1 + I % 5), I % 2 == 0);
  EXPECT_EQ(P->stats().Lookups, 500u);
}

/// --- Golden digests ----------------------------------------------------
/// FNV-1a over every observe() result of a predictor, then its final
/// stats. The digests below were recorded with the history folded bit by
/// bit on every branch; any change to what the predictor computes moves
/// them.
void digestStats(Hasher &H, const BranchPredictor &P) {
  H.u64(P.stats().Lookups).u64(P.stats().Mispredicts);
}

void digestTrace(Hasher &H, const BranchTrace &T) {
  std::unique_ptr<BranchPredictor> P = makePredictor(PredictorKind::TageScL);
  for (size_t I = 0; I < T.size(); ++I) {
    const BranchEvent &Ev = T.event(I);
    unsigned char Bit = P->observe(Ev.Op, Ev.Taken) ? 1 : 0;
    H.bytes(&Bit, 1);
  }
  digestStats(H, *P);
}

TEST(TageGoldenTest, SuiteTracesBothSidesUnderTheDefaultConfiguration) {
  Hasher H;
  uint64_t Events = 0;
  for (const BenchmarkSpec &S : paperBenchmarkSuite()) {
    PipelineOptions Opts;
    Opts.Simulate = true;
    Opts.CheckEquivalence = false;
    Opts.Machines.clear();
    PipelineRun Run(S.Build(), Opts);
    digestTrace(H, Run.baselineTrace());
    digestTrace(H, Run.treatedTrace());
    Events += Run.baselineTrace().size() + Run.treatedTrace().size();
  }
  EXPECT_EQ(Events, 404782u);
  EXPECT_EQ(H.hex(), "cce0082ef07abf4e");
}

/// A seeded stream over 48 branch ids mixing biased, periodic, loop-like
/// and history-correlated branches, observed by a predictor of \p C that
/// is reset twice mid-stream.
std::string digestSyntheticStream(const PredictorConfig &C, uint64_t Seed) {
  std::unique_ptr<BranchPredictor> P = makePredictor(PredictorKind::TageScL, C);
  Hasher H;
  uint64_t Lcg = Seed;
  auto next = [&Lcg] {
    Lcg = Lcg * 6364136223846793005ull + 1442695040888963407ull;
    return Lcg >> 33;
  };
  const unsigned Events = 30000;
  bool Last = false, Prev = false;
  unsigned Trip = 0;
  for (unsigned I = 0; I < Events; ++I) {
    if (I == Events / 3 || I == 2 * Events / 3) {
      digestStats(H, *P);
      P->reset();
    }
    OpId Br = static_cast<OpId>(1 + next() % 48);
    bool Taken;
    switch (Br % 4) {
    case 0: // biased
      Taken = next() % 10 < 8;
      break;
    case 1: // periodic in its own id
      Taken = (I / Br) % 3 == 0;
      break;
    case 2: // a loop of 7 taken iterations and one exit
      Taken = ++Trip % 8 != 0;
      break;
    default: // correlated with the two previous outcomes
      Taken = Last != Prev;
      break;
    }
    unsigned char Bit = P->observe(Br, Taken) ? 1 : 0;
    H.bytes(&Bit, 1);
    Prev = Last;
    Last = Taken;
  }
  digestStats(H, *P);
  return H.hex();
}

TEST(TageGoldenTest, SyntheticStreamsWithResetsUnderEdgeConfigurations) {
  struct Golden {
    const char *Name;
    void (*Shape)(PredictorConfig &);
    const char *Digest;
  };
  const Golden Cases[] = {
      {"default", [](PredictorConfig &) {}, "29da7df95528b357"},
      {"1-table", [](PredictorConfig &C) { C.TageTables = 1; },
       "837f349672dff282"},
      {"16-tables", [](PredictorConfig &C) { C.TageTables = 16; },
       "3ee7d099b87f32ca"},
      {"table-bits-2", [](PredictorConfig &C) { C.TageTableBits = 2; },
       "bfff69c597924059"},
      {"table-bits-12", [](PredictorConfig &C) { C.TageTableBits = 12; },
       "ab01d1df427ff555"},
      {"tag-bits-4", [](PredictorConfig &C) { C.TageTagBits = 4; },
       "6bef8c0e252110b4"},
      {"tag-bits-15", [](PredictorConfig &C) { C.TageTagBits = 15; },
       "c75c532bd45924bb"},
      {"max-history-1",
       [](PredictorConfig &C) {
         C.TageMinHistory = 1;
         C.TageMaxHistory = 1;
       },
       "c7ab1ca3e633d04c"},
      {"max-history-1-1-table",
       [](PredictorConfig &C) {
         C.TageTables = 1;
         C.TageMinHistory = 1;
         C.TageMaxHistory = 1;
       },
       "27ebc0659c9d045b"},
      {"max-history-200",
       [](PredictorConfig &C) { C.TageMaxHistory = 200; },
       "e6ec3ba3742593d9"},
      {"max-history-200-16-tables",
       [](PredictorConfig &C) {
         C.TageTables = 16;
         C.TageTableBits = 12;
         C.TageTagBits = 15;
         C.TageMaxHistory = 200;
       },
       "12de5d9eb3c50d46"},
      {"no-sc", [](PredictorConfig &C) { C.TageUseSC = false; },
       "1702aa2977526465"},
      {"no-loop", [](PredictorConfig &C) { C.TageUseLoop = false; },
       "8ca00091252d6eef"},
      {"no-sc-no-loop",
       [](PredictorConfig &C) {
         C.TageUseSC = false;
         C.TageUseLoop = false;
       },
       "dd37f635eb63cac9"},
  };
  uint64_t Seed = 7;
  for (const Golden &G : Cases) {
    PredictorConfig C;
    G.Shape(C);
    std::string Got = digestSyntheticStream(C, Seed++);
    EXPECT_EQ(Got, G.Digest) << G.Name;
  }
}

} // namespace
