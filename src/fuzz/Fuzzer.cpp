//===- fuzz/Fuzzer.cpp - Fuzzing campaigns -------------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "fuzz/Corpus.h"
#include "support/FaultInjector.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <filesystem>
#include <memory>
#include <ostream>
#include <sstream>

using namespace cpr;

std::string FuzzCampaignResult::summary() const {
  std::ostringstream Out;
  Out << "cases=" << Cases << " pass=" << Passes
      << " mismatch=" << Mismatches << " verifier-reject=" << VerifierRejects
      << " crash=" << Crashes;
  if (LintRejects > 0)
    Out << " lint-reject=" << LintRejects;
  if (LintBaselineDirty > 0)
    Out << " lint-baseline-dirty=" << LintBaselineDirty;
  if (CrossConfirmedButPass > 0)
    Out << " cross-confirmed-but-pass=" << CrossConfirmedButPass;
  if (CrossMismatchUnproved > 0)
    Out << " cross-mismatch-unproved=" << CrossMismatchUnproved;
  return Out.str();
}

namespace {

std::string hexSeed(uint64_t Seed) {
  std::ostringstream Out;
  Out << std::hex << Seed;
  return Out.str();
}

/// Builds case \p Index deterministically from its seed: either a fresh
/// generation or a mutation of a corpus entry. Pure function of
/// (CaseSeed, corpus contents, generator config).
KernelProgram buildCase(uint64_t CaseSeed, const FuzzCampaignOptions &Opts,
                        const std::vector<KernelProgram> &Corpus,
                        const ProgramMutator &Mutator) {
  RNG CaseRng(CaseSeed);
  if (!Corpus.empty() && CaseRng.nextBool(Opts.MutateFrac)) {
    const KernelProgram &Base = Corpus[CaseRng.nextBelow(Corpus.size())];
    return Mutator.mutate(Base, CaseRng);
  }
  return generateProgram(CaseSeed, Opts.Generator);
}

/// Loads Opts.CorpusDir in sorted-filename order for determinism.
std::vector<KernelProgram> loadCorpus(const FuzzCampaignOptions &Opts) {
  std::vector<KernelProgram> Corpus;
  if (Opts.CorpusDir.empty())
    return Corpus;
  for (const std::string &Path : listCorpusFiles(Opts.CorpusDir)) {
    FuzzParseResult PR = loadFuzzProgramFile(Path);
    if (!PR) {
      if (Opts.Log)
        *Opts.Log << "fuzz: skipping unparseable corpus entry: " << PR.Error
                  << "\n";
      if (Opts.Stats)
        Opts.Stats->addCount("fuzz/corpus_skipped");
      continue;
    }
    Corpus.push_back(std::move(PR.Program));
  }
  if (Opts.Stats)
    Opts.Stats->addCount("fuzz/corpus_loaded",
                         static_cast<double>(Corpus.size()));
  return Corpus;
}

} // namespace

FuzzCampaignResult cpr::runFuzzCampaign(const FuzzCampaignOptions &Opts) {
  FuzzCampaignResult Res;
  Res.Cases = Opts.Runs;

  if (!Opts.OutDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.OutDir, EC);
    if (EC && Opts.Log)
      *Opts.Log << "fuzz: cannot create --out directory '" << Opts.OutDir
                << "': " << EC.message() << "\n";
  }

  std::vector<KernelProgram> Corpus = loadCorpus(Opts);

  FuzzJudge Judge(Opts.Oracle, Opts.Variants, Opts.Machines);
  ProgramMutator Mutator(Opts.Generator);

  // Per-case seeds are drawn serially up front so case I's program never
  // depends on scheduling.
  std::vector<uint64_t> CaseSeeds(Opts.Runs);
  {
    RNG Base(Opts.Seed);
    for (uint64_t &S : CaseSeeds)
      S = Base.next();
  }

  // The fault registry is process-global: arm the planted defect strictly
  // before the worker pool exists and disarm it after the pool has been
  // joined. NthHit 0 arms nothing.
  fault::ScopedFault Inject("cpr.restructure.compensation",
                            Opts.InjectDefect ? fault::EveryHit : 0);

  std::vector<CaseVerdict> Cases(Opts.Runs);
  {
    std::unique_ptr<ThreadPool> Pool;
    if (Opts.Threads != 1)
      Pool = std::make_unique<ThreadPool>(Opts.Threads);
    PassTimer T(Opts.Stats, "fuzz/run_cases");
    parallelFor(Pool.get(), Opts.Runs, [&](size_t I) {
      PassTimer CT(Opts.Stats, "fuzz/case/" + std::to_string(I));
      KernelProgram P = buildCase(CaseSeeds[I], Opts, Corpus, Mutator);
      Cases[I] = Judge.judgeCase(P);
    });
  }

  // Serial triage + reduction, in case order.
  for (size_t I = 0; I < Cases.size(); ++I) {
    const CaseVerdict &Case = Cases[I];
    const FuzzVerdict &Worst = Case.Worst;
    Res.LintBaselineDirty += Case.BaselineDirty;
    switch (Worst.Outcome) {
    case FuzzOutcome::Pass:
      ++Res.Passes;
      continue;
    case FuzzOutcome::Mismatch:
      ++Res.Mismatches;
      break;
    case FuzzOutcome::VerifierReject:
      ++Res.VerifierRejects;
      break;
    case FuzzOutcome::LintReject:
      ++Res.LintRejects;
      break;
    case FuzzOutcome::Crash:
      ++Res.Crashes;
      break;
    }
    Res.CrossConfirmedButPass +=
        Worst.Cross == CrossDisagreement::ConfirmedButPass;
    Res.CrossMismatchUnproved +=
        Worst.Cross == CrossDisagreement::MismatchUnproved;

    FuzzFailure Fail;
    Fail.CaseIndex = I;
    Fail.CaseSeed = CaseSeeds[I];
    Fail.Outcome = Worst.Outcome;
    Fail.Divergence = Worst.Divergence;
    Fail.Detail = Worst.Detail;
    Fail.VariantName = Judge.variants()[Case.Variant].Name;

    // The case program is a pure function of its seed, so the serial
    // phase simply rebuilds it instead of shipping programs out of the
    // parallel phase.
    KernelProgram P = buildCase(CaseSeeds[I], Opts, Corpus, Mutator);
    Fail.OriginalOps = P.Func->totalOps();
    Fail.ReducedOps = Fail.OriginalOps;
    if (Opts.Log)
      *Opts.Log << "fuzz: case " << I << " (seed 0x" << hexSeed(Fail.CaseSeed)
                << ") " << fuzzOutcomeName(Fail.Outcome) << ": "
                << Fail.Detail << "\n";

    if (Opts.Reduce) {
      CaseOracle Oracle = [&Judge, V = Case.Variant](const KernelProgram &C) {
        return Judge.judge(C, V);
      };
      ReduceResult RR = reduceCaseWith(P, Oracle, Opts.Reducer);
      Fail.ReducedOps = RR.ReducedOps;
      Fail.ReducedText = serializeFuzzProgram(RR.Reduced);
      if (Opts.Stats) {
        Opts.Stats->addCount("fuzz/reduce/oracle_runs",
                             static_cast<double>(RR.OracleRuns));
        Opts.Stats->addCount("fuzz/reduce/ops_removed",
                             static_cast<double>(RR.OriginalOps -
                                                 RR.ReducedOps));
      }
      if (!Opts.OutDir.empty()) {
        std::string Path = Opts.OutDir + "/repro-" + hexSeed(Fail.CaseSeed) +
                           "-" + Fail.VariantName + ".ir";
        std::string Error;
        if (writeFuzzProgramFile(RR.Reduced, Path, &Error)) {
          Fail.ReproducerPath = Path;
        } else if (Opts.Log) {
          *Opts.Log << "fuzz: cannot write reproducer: " << Error << "\n";
        }
      }
      if (Opts.Log)
        *Opts.Log << "fuzz:   reduced " << Fail.OriginalOps << " -> "
                  << Fail.ReducedOps << " ops ("
                  << (Fail.ReproducerPath.empty() ? "not written"
                                                  : Fail.ReproducerPath)
                  << ")\n";
    } else {
      Fail.ReducedText = serializeFuzzProgram(P);
    }
    Res.Failures.push_back(std::move(Fail));
  }

  if (Opts.Stats) {
    // One counter per FuzzCampaignResult tally, whatever the oracle.
    StatsRegistry &S = *Opts.Stats;
    S.addCount("fuzz/cases", Res.Cases);
    S.addCount("fuzz/passes", Res.Passes);
    S.addCount("fuzz/mismatches", Res.Mismatches);
    S.addCount("fuzz/verifier_rejects", Res.VerifierRejects);
    S.addCount("fuzz/lint_rejects", Res.LintRejects);
    S.addCount("fuzz/crashes", Res.Crashes);
    S.addCount("fuzz/lint_baseline_dirty", Res.LintBaselineDirty);
    S.addCount("fuzz/cross_confirmed_but_pass", Res.CrossConfirmedButPass);
    S.addCount("fuzz/cross_mismatch_unproved", Res.CrossMismatchUnproved);
    for (const FuzzFailure &F : Res.Failures)
      if (F.Divergence != EquivResult::Divergence::None)
        S.addCount(std::string("fuzz/divergence/") +
                   divergenceName(F.Divergence));
  }
  return Res;
}
