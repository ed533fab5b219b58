//===- sim/frontend/TAGE.cpp - TAGE-SC-L branch predictor -----------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/frontend/TAGE.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

using namespace cpr;

std::vector<unsigned> cpr::tageHistoryLengths(unsigned Tables,
                                              unsigned MinHist,
                                              unsigned MaxHist) {
  if (Tables == 0)
    return {};
  MinHist = std::max(1u, MinHist);
  MaxHist = std::max(MinHist, MaxHist);
  std::vector<unsigned> Lengths(Tables);
  if (Tables == 1) {
    Lengths[0] = MaxHist;
    return Lengths;
  }
  double Ratio = std::pow(static_cast<double>(MaxHist) /
                              static_cast<double>(MinHist),
                          1.0 / static_cast<double>(Tables - 1));
  double L = static_cast<double>(MinHist);
  unsigned Prev = 0;
  for (unsigned I = 0; I < Tables; ++I) {
    unsigned Len = static_cast<unsigned>(L + 0.5);
    // Strictly increasing even when rounding collides.
    Len = std::max(Len, Prev + 1);
    Lengths[I] = Len;
    Prev = Len;
    L *= Ratio;
  }
  Lengths[Tables - 1] = std::max(MaxHist, Prev);
  return Lengths;
}

namespace {

/// Signed saturating counter update over [Lo, Hi].
template <typename T> void ctrUpdate(T &Ctr, bool Up, int Lo, int Hi) {
  if (Up) {
    if (Ctr < Hi)
      ++Ctr;
  } else if (Ctr > Lo) {
    --Ctr;
  }
}

struct TageEntry {
  uint16_t Tag = 0;
  int8_t Ctr = 0; ///< 3-bit signed prediction counter, taken when >= 0
  uint8_t U = 0;  ///< 2-bit usefulness counter
  bool Valid = false;
};

struct LoopEntry {
  uint32_t Tag = 0;
  uint16_t PastIters = 0; ///< learned trip count of the last full run
  uint16_t CurrIter = 0;  ///< body iterations seen in the current run
  uint8_t Conf = 0;       ///< consecutive runs with the same trip count
  bool Dir = false;       ///< the loop-body direction being counted
  bool Valid = false;
};

class TageScLPredictor final : public BranchPredictor {
  static constexpr int CtrMax = 3;   // 3-bit signed: [-4, 3]
  static constexpr int CtrMin = -4;
  static constexpr int UMax = 3;     // 2-bit usefulness
  static constexpr int SCMax = 31;   // 6-bit signed SC counters
  static constexpr int SCMin = -32;
  static constexpr int UseAltMax = 7; // 4-bit signed use-alt-on-NA
  static constexpr int UseAltMin = -8;
  static constexpr unsigned LoopConfThreshold = 3;
  static constexpr uint16_t LoopIterMax = 0x3fff;
  static constexpr uint64_t UDecayPeriod = 1u << 18;

public:
  explicit TageScLPredictor(const PredictorConfig &C)
      : TableBits(std::max(2u, C.TageTableBits)),
        TagBits(std::min(15u, std::max(4u, C.TageTagBits))),
        BimodalBits(std::max(1u, C.TableBits)),
        Lengths(tageHistoryLengths(
            std::min(16u, std::max(1u, C.TageTables)), C.TageMinHistory,
            C.TageMaxHistory)),
        UseSC(C.TageUseSC), UseLoop(C.TageUseLoop),
        LoopBits(std::max(1u, C.LoopTableBits)) {
    Bimodal.assign(size_t(1) << BimodalBits, WeaklyNotTaken);
    Tables.assign(Lengths.size(),
                  std::vector<TageEntry>(size_t(1) << TableBits));
    unsigned HistLen = Lengths.back();
    GHist.assign(std::bit_ceil(size_t(HistLen)), 0);
    // Four folded registers per tagged table: its index and its tag, each
    // folded to the full and to one bit less than the full width.
    for (unsigned Len : Lengths)
      for (unsigned Width :
           {TableBits, TableBits - 1, TagBits, TagBits - 1})
        Folds.push_back(FoldedHistory(Len, Width, HistLen));
    // Statistical corrector: an unhistoried bias table plus two short
    // global-history tables (0, min, 2*min bits), one register each.
    const unsigned SCLengths[] = {0, Lengths.front(), 2 * Lengths.front()};
    for (unsigned Len : SCLengths)
      Folds.push_back(FoldedHistory(Len, TableBits, HistLen));
    SCTables.assign(std::size(SCLengths),
                    std::vector<int8_t>(size_t(1) << TableBits, 0));
    Loops.assign(size_t(1) << LoopBits, LoopEntry());
  }

  const char *name() const override { return "tage-sc-l"; }

  bool predict(OpId Br) override {
    Pre = computePrediction(Br);
    return Pre.Final;
  }

  void update(OpId Br, bool Taken) override {
    // predict() caches the component state it derived; recompute when a
    // caller trains without predicting first.
    if (Pre.Br != Br || !Pre.ValidFor)
      Pre = computePrediction(Br);
    Prediction P = Pre;
    Pre.ValidFor = false;

    if (UseLoop)
      updateLoop(Br, Taken, P);
    if (UseSC)
      updateSC(Br, Taken, P);
    updateTage(Br, Taken, P);

    // Advance the global history: each folded register takes the new
    // bit and drops the one that just aged out of its window, read before
    // the ring's oldest slot is overwritten.
    size_t Mask = GHist.size() - 1;
    for (FoldedHistory &F : Folds)
      if (F.Len != 0)
        F.push(Taken, GHist[(Head + F.Len - 1) & Mask]);
    Head = (Head + Mask) & Mask;
    GHist[Head] = Taken ? 1 : 0;
  }

  void reset() override {
    std::fill(Bimodal.begin(), Bimodal.end(), WeaklyNotTaken);
    for (std::vector<TageEntry> &T : Tables)
      std::fill(T.begin(), T.end(), TageEntry());
    for (std::vector<int8_t> &T : SCTables)
      std::fill(T.begin(), T.end(), 0);
    std::fill(Loops.begin(), Loops.end(), LoopEntry());
    std::fill(GHist.begin(), GHist.end(), 0);
    Head = 0;
    for (FoldedHistory &F : Folds)
      F.Value = 0;
    UseAltOnNA = 0;
    WithLoop = 0;
    UpdateCount = 0;
    Pre = Prediction();
    clearStats();
  }

private:
  static constexpr uint8_t WeaklyNotTaken = 1;

  /// Everything predict() derives, reused by update() for training.
  struct Prediction {
    OpId Br = InvalidOpId;
    bool ValidFor = false;
    int Provider = -1;      ///< tagged table of the provider, -1 = bimodal
    int Alt = -1;           ///< tagged table of the alternate, -1 = bimodal
    uint32_t ProviderIdx = 0;
    bool ProviderPred = false;
    bool AltPred = false;
    bool WeakProvider = false; ///< provider entry looks newly allocated
    bool TagePred = false;     ///< after use-alt-on-NA arbitration
    bool LoopValid = false;    ///< loop predictor is confident
    bool LoopPred = false;
    bool SCUsed = false;       ///< statistical corrector reversed the pred
    int SCSum = 0;
    bool Final = false;
    uint32_t Indices[16] = {};
    uint16_t Tags[16] = {};
  };

  /// The newest \p Len history bits XORed into a \p Width-bit register,
  /// bit I of the history at position I % Width, kept up to date in O(1)
  /// per branch. \p Len is clamped to the history size; a zero length
  /// folds to 0 forever.
  struct FoldedHistory {
    unsigned Len;
    unsigned Width;
    unsigned OutPos; ///< where the bit of age Len lands: Len % Width
    uint32_t Mask;
    uint32_t Value = 0;

    FoldedHistory(unsigned LenIn, unsigned WidthIn, unsigned HistLen)
        : Len(std::min(LenIn, HistLen)), Width(WidthIn),
          OutPos(Len % WidthIn), Mask((1u << WidthIn) - 1) {}

    /// Shifts in \p In as the newest bit; \p Out is the bit that moves
    /// from age Len - 1 to age Len and so leaves the window.
    void push(bool In, uint8_t Out) {
      Value = ((Value << 1) | (Value >> (Width - 1))) & Mask;
      Value ^= static_cast<uint32_t>(In) ^
               (static_cast<uint32_t>(Out & 1u) << OutPos);
    }
  };

  /// Folded registers of tagged table \p Table (index, index - 1 bit,
  /// tag, tag - 1 bit) and of statistical-corrector table \p Table.
  const FoldedHistory *tableFolds(unsigned Table) const {
    return &Folds[4 * Table];
  }
  uint32_t scFold(unsigned Table) const {
    return Folds[4 * Lengths.size() + Table].Value;
  }

  uint32_t tableIndex(OpId Br, unsigned Table) const {
    uint32_t Mask = (1u << TableBits) - 1;
    const FoldedHistory *F = tableFolds(Table);
    return (predictorTableIndex(Br, TableBits) ^ F[0].Value ^
            (F[1].Value << 1) ^ (Table + 1)) &
           Mask;
  }

  uint16_t tableTag(OpId Br, unsigned Table) const {
    uint32_t Mask = (1u << TagBits) - 1;
    const FoldedHistory *F = tableFolds(Table);
    return static_cast<uint16_t>(
        (Br ^ (Br >> TagBits) ^ F[2].Value ^ (F[3].Value << 1)) & Mask);
  }

  bool bimodalPred(OpId Br) const {
    return Bimodal[predictorTableIndex(Br, BimodalBits)] >= 2;
  }

  uint32_t scIndex(OpId Br, unsigned Table) const {
    uint32_t Mask = (1u << TableBits) - 1;
    return (predictorTableIndex(Br, TableBits) ^ scFold(Table)) & Mask;
  }

  uint32_t loopIndex(OpId Br) const {
    return predictorTableIndex(Br, LoopBits);
  }
  uint32_t loopTag(OpId Br) const { return Br >> LoopBits; }

  Prediction computePrediction(OpId Br) {
    Prediction P;
    P.Br = Br;
    P.ValidFor = true;

    // Tagged-table match: longest history wins, next match is alternate.
    for (unsigned T = 0; T < Tables.size(); ++T) {
      P.Indices[T] = tableIndex(Br, T);
      P.Tags[T] = tableTag(Br, T);
      const TageEntry &E = Tables[T][P.Indices[T]];
      if (E.Valid && E.Tag == P.Tags[T]) {
        P.Alt = P.Provider;
        P.AltPred = P.ProviderPred;
        P.Provider = static_cast<int>(T);
        P.ProviderIdx = P.Indices[T];
        P.ProviderPred = E.Ctr >= 0;
        P.WeakProvider = (E.Ctr == 0 || E.Ctr == -1) && E.U == 0;
      }
    }
    bool Bim = bimodalPred(Br);
    if (P.Provider < 0) {
      P.ProviderPred = Bim;
      P.AltPred = Bim;
    } else if (P.Alt < 0) {
      P.AltPred = Bim;
    }

    // Use the alternate while a freshly allocated provider is untrained.
    P.TagePred = (P.Provider >= 0 && P.WeakProvider && UseAltOnNA >= 0)
                     ? P.AltPred
                     : P.ProviderPred;
    P.Final = P.TagePred;

    // Statistical corrector: reverse a low-confidence prediction the
    // counters disagree with strongly enough.
    if (UseSC) {
      int Sum = 0;
      for (unsigned T = 0; T < SCTables.size(); ++T)
        Sum += 2 * SCTables[T][scIndex(Br, T)] + 1;
      // Center on the TAGE direction so the corrector votes on it.
      Sum += P.Final ? SCBias : -SCBias;
      P.SCSum = Sum;
      bool SCPred = Sum >= 0;
      if (SCPred != P.Final && std::abs(Sum) >= SCThreshold) {
        P.SCUsed = true;
        P.Final = SCPred;
      }
    }

    // Loop predictor: a confident constant-trip-count loop has the final
    // say (it is the only component that can anticipate the exit of a
    // loop longer than the history registers, so the corrector must not
    // outvote it).
    if (UseLoop) {
      const LoopEntry &L = Loops[loopIndex(Br)];
      if (L.Valid && L.Tag == loopTag(Br) && L.Conf >= LoopConfThreshold &&
          L.PastIters > 0) {
        P.LoopValid = true;
        P.LoopPred = L.CurrIter < L.PastIters ? L.Dir : !L.Dir;
        if (WithLoop >= 0)
          P.Final = P.LoopPred;
      }
    }
    return P;
  }

  void updateLoop(OpId Br, bool Taken, const Prediction &P) {
    LoopEntry &L = Loops[loopIndex(Br)];
    uint32_t Tag = loopTag(Br);
    if (!L.Valid || L.Tag != Tag) {
      // Direct-mapped replacement: claim invalid or unconfident slots.
      if (L.Valid && L.Conf != 0) {
        --L.Conf; // age the incumbent instead of thrashing
        return;
      }
      L = LoopEntry();
      L.Valid = true;
      L.Tag = Tag;
      L.Dir = Taken;
      L.CurrIter = 1;
      return;
    }
    if (Taken == L.Dir) {
      if (L.CurrIter < LoopIterMax)
        ++L.CurrIter;
      else
        L.Conf = 0; // runaway run: not a countable loop
      return;
    }
    // The direction flipped: one full run of the loop body ended.
    if (L.CurrIter == L.PastIters) {
      if (L.Conf < 7)
        ++L.Conf;
    } else {
      L.PastIters = L.CurrIter;
      L.Conf = L.PastIters == 0 ? 0 : 1;
    }
    L.CurrIter = 0;
    // Track whether trusting the loop predictor beats the TAGE pred.
    if (P.LoopValid && P.LoopPred != P.TagePred)
      ctrUpdate(WithLoop, P.LoopPred == Taken, UseAltMin, UseAltMax);
  }

  void updateSC(OpId Br, bool Taken, const Prediction &P) {
    // Train on mispredictions and on low-confidence agreement, like the
    // GEHL update rule.
    bool Mispredicted = P.Final != Taken;
    if (!Mispredicted && std::abs(P.SCSum) > SCThreshold + SCMargin)
      return;
    for (unsigned T = 0; T < SCTables.size(); ++T)
      ctrUpdate(SCTables[T][scIndex(Br, T)], Taken, SCMin, SCMax);
  }

  void updateTage(OpId Br, bool Taken, const Prediction &P) {
    bool TageWrong = P.TagePred != Taken;

    if (P.Provider >= 0) {
      TageEntry &E = Tables[P.Provider][P.ProviderIdx];
      // use-alt-on-NA: learn whether untrained entries should be trusted.
      if (P.WeakProvider && P.ProviderPred != P.AltPred)
        ctrUpdate(UseAltOnNA, P.ProviderPred != Taken, UseAltMin,
                  UseAltMax);
      // Usefulness tracks provider-beats-alternate outcomes.
      if (P.ProviderPred != P.AltPred) {
        if (P.ProviderPred == Taken) {
          if (E.U < UMax)
            ++E.U;
        } else if (E.U > 0) {
          --E.U;
        }
      }
      ctrUpdate(E.Ctr, Taken, CtrMin, CtrMax);
      // When the provider's alternate was the bimodal table, keep the
      // base trained too so evicted branches fall back gracefully.
      if (P.Alt < 0) {
        uint8_t &B = Bimodal[predictorTableIndex(Br, BimodalBits)];
        if (Taken) {
          if (B < 3)
            ++B;
        } else if (B > 0) {
          --B;
        }
      }
    } else {
      uint8_t &B = Bimodal[predictorTableIndex(Br, BimodalBits)];
      if (Taken) {
        if (B < 3)
          ++B;
      } else if (B > 0) {
        --B;
      }
    }

    // Deterministic allocation: on a TAGE mispredict, claim the first
    // not-useful entry in a longer-history table; if every candidate is
    // useful, decay them all instead (the reference design picks a
    // random candidate -- determinism forbids that here).
    if (TageWrong && P.Provider + 1 < static_cast<int>(Tables.size())) {
      int Allocated = -1;
      for (unsigned T = P.Provider + 1; T < Tables.size(); ++T) {
        TageEntry &E = Tables[T][P.Indices[T]];
        if (E.U == 0) {
          E.Valid = true;
          E.Tag = P.Tags[T];
          E.Ctr = Taken ? 0 : -1;
          Allocated = static_cast<int>(T);
          break;
        }
      }
      if (Allocated < 0)
        for (unsigned T = P.Provider + 1; T < Tables.size(); ++T) {
          TageEntry &E = Tables[T][P.Indices[T]];
          if (E.U > 0)
            --E.U;
        }
    }

    // Periodic graceful forgetting of usefulness, so stale entries can
    // eventually be reclaimed.
    if (++UpdateCount % UDecayPeriod == 0)
      for (std::vector<TageEntry> &T : Tables)
        for (TageEntry &E : T)
          E.U >>= 1;
  }

  unsigned TableBits;
  unsigned TagBits;
  unsigned BimodalBits;
  std::vector<unsigned> Lengths;
  bool UseSC;
  bool UseLoop;
  unsigned LoopBits;

  static constexpr int SCBias = 4;
  static constexpr int SCThreshold = 5;
  static constexpr int SCMargin = 4;

  std::vector<uint8_t> Bimodal;
  std::vector<std::vector<TageEntry>> Tables;
  /// The global history, a ring of a power-of-two size no smaller than
  /// the longest history length, whose bit of age I (0 = newest) is
  /// GHist[(Head + I) & (size - 1)].
  std::vector<uint8_t> GHist;
  size_t Head = 0;
  /// 4 registers per tagged table, then 1 per statistical-corrector table.
  std::vector<FoldedHistory> Folds;
  std::vector<std::vector<int8_t>> SCTables;
  std::vector<LoopEntry> Loops;
  int8_t UseAltOnNA = 0;
  int8_t WithLoop = 0;
  uint64_t UpdateCount = 0;
  Prediction Pre;
};

} // namespace

std::unique_ptr<BranchPredictor>
cpr::makeTageScLPredictor(const PredictorConfig &C) {
  return std::make_unique<TageScLPredictor>(C);
}
