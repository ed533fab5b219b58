//===- fuzz/Fuzzer.cpp - Differential fuzzing campaigns -------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "fuzz/Corpus.h"
#include "fuzz/Reducer.h"
#include "ir/Verifier.h"
#include "lint/Lint.h"
#include "lint/Witness.h"
#include "pipeline/PipelineRun.h"
#include "regions/LoopUnroller.h"
#include "support/Error.h"
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

/// The static campaign's stand-in for a profiling run: every branch is
/// hot and almost never taken -- exactly the bias the CPR heuristics
/// form on-trace blocks for -- so the transform exercises its full
/// machinery on every case without an interpreter in the loop.
ProfileData syntheticBiasedProfile(const Function &F) {
  ProfileData Prof;
  for (size_t B = 0; B < F.numBlocks(); ++B)
    for (const Operation &Op : F.block(B).ops())
      if (Op.isBranch()) {
        Prof.addBranchReached(Op.getId(), 100);
        Prof.addBranchTaken(Op.getId(), 2);
      }
  return Prof;
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

  DifferentialRunner Runner(Opts.Variants, Opts.Machines);
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

  std::vector<CaseResult> Cases(Opts.Runs);
  {
    std::unique_ptr<ThreadPool> Pool;
    if (Opts.Threads != 1)
      Pool = std::make_unique<ThreadPool>(Opts.Threads);
    PassTimer T(Opts.Stats, "fuzz/run_cases");
    parallelFor(Pool.get(), Opts.Runs, [&](size_t I) {
      PassTimer CT(Opts.Stats, "fuzz/case/" + std::to_string(I));
      KernelProgram P = buildCase(CaseSeeds[I], Opts, Corpus, Mutator);
      Cases[I] = Runner.runCase(P);
    });
  }

  // Serial triage + reduction, in case order.
  for (size_t I = 0; I < Cases.size(); ++I) {
    const CaseResult &Case = Cases[I];
    switch (Case.Worst) {
    case FuzzOutcome::Pass:
      ++Res.Passes;
      continue;
    case FuzzOutcome::Mismatch:
      ++Res.Mismatches;
      break;
    case FuzzOutcome::VerifierReject:
      ++Res.VerifierRejects;
      break;
    case FuzzOutcome::LintReject: // static-oracle campaigns only
      ++Res.LintRejects;
      break;
    case FuzzOutcome::Crash:
      ++Res.Crashes;
      break;
    }

    FuzzFailure Fail;
    Fail.CaseIndex = I;
    Fail.CaseSeed = CaseSeeds[I];
    Fail.Outcome = Case.Worst;
    const CellResult &Worst =
        Case.Cells[Case.WorstVariant * Runner.machines().size() +
                   Case.WorstMachine];
    Fail.Divergence = Worst.Divergence;
    Fail.Detail = Worst.Detail;
    Fail.VariantName = Runner.variants()[Case.WorstVariant].Name;
    Fail.MachineName = Runner.machines()[Case.WorstMachine].getName();

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
      ReduceResult RR = reduceCase(P, Runner, Case.WorstVariant,
                                   Case.WorstMachine, Opts.Reducer);
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
                           "-" + Fail.VariantName + "-" + Fail.MachineName +
                           ".ir";
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
    Opts.Stats->addCount("fuzz/cases", Res.Cases);
    Opts.Stats->addCount("fuzz/pass", Res.Passes);
    Opts.Stats->addCount("fuzz/mismatch", Res.Mismatches);
    Opts.Stats->addCount("fuzz/verifier_reject", Res.VerifierRejects);
    Opts.Stats->addCount("fuzz/crash", Res.Crashes);
    for (const FuzzFailure &F : Res.Failures)
      if (F.Outcome == FuzzOutcome::Mismatch)
        Opts.Stats->addCount(std::string("fuzz/divergence/") +
                             divergenceName(F.Divergence));
  }
  return Res;
}

FuzzCampaignResult
cpr::runStaticLintCampaign(const FuzzCampaignOptions &Opts) {
  FuzzCampaignResult Res;
  Res.Cases = Opts.Runs;

  std::vector<KernelProgram> Corpus = loadCorpus(Opts);
  ProgramMutator Mutator(Opts.Generator);
  std::vector<FuzzVariant> Variants =
      Opts.Variants.empty() ? defaultFuzzVariants() : Opts.Variants;
  LintOptions LintOpts;
  LintOpts.Machines =
      Opts.Machines.empty()
          ? std::vector<MachineDesc>{MachineDesc::medium(),
                                     MachineDesc::wide()}
          : Opts.Machines;
  LintDriver Linter(std::move(LintOpts));

  std::vector<uint64_t> CaseSeeds(Opts.Runs);
  {
    RNG Base(Opts.Seed);
    for (uint64_t &S : CaseSeeds)
      S = Base.next();
  }

  fault::ScopedFault Inject("cpr.restructure.compensation",
                            Opts.InjectDefect ? fault::EveryHit : 0);

  /// Worst outcome of one case across the variant sweep.
  struct StaticCase {
    FuzzOutcome Outcome = FuzzOutcome::Pass;
    bool BaselineDirty = false;
    size_t Variant = 0;
    std::string Detail;
  };
  std::vector<StaticCase> Cases(Opts.Runs);
  {
    std::unique_ptr<ThreadPool> Pool;
    if (Opts.Threads != 1)
      Pool = std::make_unique<ThreadPool>(Opts.Threads);
    PassTimer T(Opts.Stats, "fuzz/lint/run_cases");
    parallelFor(Pool.get(), Opts.Runs, [&](size_t I) {
      KernelProgram P = buildCase(CaseSeeds[I], Opts, Corpus, Mutator);
      StaticCase &SC = Cases[I];
      auto Worsen = [&SC](FuzzOutcome O, size_t V, std::string Detail) {
        if (fuzzOutcomeSeverity(O) <= fuzzOutcomeSeverity(SC.Outcome))
          return;
        SC.Outcome = O;
        SC.Variant = V;
        SC.Detail = std::move(Detail);
      };
      for (size_t V = 0; V < Variants.size(); ++V) {
        const FuzzVariant &Variant = Variants[V];
        ScopedFatalErrorTrap Trap;
        try {
          std::unique_ptr<Function> F = P.Func->clone();
          if (Variant.UnrollFactor >= 2)
            for (size_t B = 0; B < F->numBlocks(); ++B)
              unrollLoop(*F, F->block(B), Variant.UnrollFactor);
          // Differential gate: findings the substrate already has are
          // the generator's, not the transform's.
          LintResult BL = Linter.run(*F, nullptr, &P.InitRegs);
          if (BL.errorCount() > 0) {
            SC.BaselineDirty = true;
            continue;
          }
          // Fail-safe context: ordinary transform failures roll back and
          // stay silent; a verifier-clean invariant break (the planted
          // compensation-skip defect) commits and is the lint's to find.
          CPRContext Ctx;
          Ctx.FailSafe = true;
          ProfileData Prof = syntheticBiasedProfile(*F);
          runControlCPR(*F, Prof, Variant.CPR, Ctx);
          LintResult TL = Linter.run(*F, nullptr, &P.InitRegs);
          for (const LintFinding &Finding : TL.Findings)
            if (Finding.Severity == DiagSeverity::Error) {
              Worsen(FuzzOutcome::LintReject, V,
                     "[" + Variant.Name + "] " + Finding.str());
              break;
            }
        } catch (const FatalError &E) {
          bool Verifier =
              E.message().rfind("IR verification failed (", 0) == 0;
          Worsen(Verifier ? FuzzOutcome::VerifierReject : FuzzOutcome::Crash,
                 V, "[" + Variant.Name + "] " + E.message());
        }
      }
    });
  }

  // Serial triage, in case order (no reduction in static mode: the
  // reducer's oracle is the differential runner).
  for (size_t I = 0; I < Cases.size(); ++I) {
    const StaticCase &Case = Cases[I];
    if (Case.BaselineDirty)
      ++Res.LintBaselineDirty;
    switch (Case.Outcome) {
    case FuzzOutcome::Pass:
      ++Res.Passes;
      continue;
    case FuzzOutcome::Mismatch: // not produced by this oracle
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

    FuzzFailure Fail;
    Fail.CaseIndex = I;
    Fail.CaseSeed = CaseSeeds[I];
    Fail.Outcome = Case.Outcome;
    Fail.VariantName = Variants[Case.Variant].Name;
    Fail.Detail = Case.Detail;
    KernelProgram P = buildCase(CaseSeeds[I], Opts, Corpus, Mutator);
    Fail.OriginalOps = P.Func->totalOps();
    Fail.ReducedOps = Fail.OriginalOps;
    Fail.ReducedText = serializeFuzzProgram(P);
    if (Opts.Log)
      *Opts.Log << "fuzz: case " << I << " (seed 0x" << hexSeed(Fail.CaseSeed)
                << ") " << fuzzOutcomeName(Fail.Outcome) << ": "
                << Fail.Detail << "\n";
    Res.Failures.push_back(std::move(Fail));
  }

  if (Opts.Stats) {
    Opts.Stats->addCount("fuzz/lint/cases", Res.Cases);
    Opts.Stats->addCount("fuzz/lint/pass", Res.Passes);
    Opts.Stats->addCount("fuzz/lint/reject", Res.LintRejects);
    Opts.Stats->addCount("fuzz/lint/baseline_dirty", Res.LintBaselineDirty);
    Opts.Stats->addCount("fuzz/lint/crash", Res.Crashes);
  }
  return Res;
}

namespace {

/// Agreement classification of one case x variant under both oracles.
enum class CrossClass {
  Agree,
  BaselineDirty,     ///< excluded: the substrate already lints dirty
  ConfirmedButPass,  ///< confirmed witness, differential equivalence pass
  MismatchUnproved,  ///< differential mismatch, no error finding
};

/// Runs both oracles over one (program x variant) and compares verdicts.
/// \p Detail receives the discrepancy description. FatalError escapes to
/// the caller (trap there).
CrossClass crossValidateOnce(const KernelProgram &P,
                             const FuzzVariant &Variant,
                             const LintDriver &Linter,
                             std::string &Detail) {
  PipelineOptions POpts;
  POpts.CPR = Variant.CPR;
  POpts.UnrollFactor = Variant.UnrollFactor;
  POpts.CheckEquivalence = false; // the non-fatal oracle runs below
  POpts.FailSafe = false;         // rollback would hide what we compare
  PipelineRun Session(P.clone(), POpts);
  const Function &Treated = Session.treated();
  if (!verifyFunction(Treated).empty())
    return CrossClass::Agree; // runFuzzCampaign's territory, not ours

  // Differential gate, same as the static campaign: findings the
  // substrate already has are the generator's.
  if (Linter.run(Session.baseline(), nullptr, &P.InitRegs).errorCount() > 0)
    return CrossClass::BaselineDirty;

  const EquivResult &E = Session.checkEquivalenceResult();
  LintResult TL = Linter.run(Treated, nullptr, &P.InitRegs);

  // Replay every solved error-finding witness; the first confirmation
  // suffices to establish the static side's concrete claim.
  const LintFinding *ConfirmedOn = nullptr;
  for (const LintFinding &Fd : TL.Findings) {
    if (Fd.Severity != DiagSeverity::Error || !Fd.Witness ||
        !Fd.Witness->Solved)
      continue;
    WitnessConfirmation WC = confirmWitness(Treated, *Fd.Witness);
    if (WC.Confirmed) {
      ConfirmedOn = &Fd;
      break;
    }
  }

  if (E.Equivalent && ConfirmedOn) {
    Detail = "cross-validate[confirmed-witness-differential-pass] [" +
             Variant.Name + "] " + ConfirmedOn->str();
    return CrossClass::ConfirmedButPass;
  }
  if (!E.Equivalent && TL.errorCount() == 0) {
    Detail = "cross-validate[differential-mismatch-no-finding] [" +
             Variant.Name + " | " + divergenceName(E.Kind) + "] " + E.Detail;
    return CrossClass::MismatchUnproved;
  }
  return CrossClass::Agree;
}

} // namespace

FuzzCampaignResult
cpr::runCrossValidationCampaign(const FuzzCampaignOptions &Opts) {
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
  ProgramMutator Mutator(Opts.Generator);
  std::vector<FuzzVariant> Variants =
      Opts.Variants.empty() ? defaultFuzzVariants() : Opts.Variants;
  LintOptions LintOpts;
  LintOpts.Machines =
      Opts.Machines.empty()
          ? std::vector<MachineDesc>{MachineDesc::medium(),
                                     MachineDesc::wide()}
          : Opts.Machines;
  LintDriver Linter(std::move(LintOpts));

  std::vector<uint64_t> CaseSeeds(Opts.Runs);
  {
    RNG Base(Opts.Seed);
    for (uint64_t &S : CaseSeeds)
      S = Base.next();
  }

  fault::ScopedFault Inject("cpr.restructure.compensation",
                            Opts.InjectDefect ? fault::EveryHit : 0);

  /// Worst discrepancy of one case across the variant sweep.
  struct CrossCase {
    CrossClass Class = CrossClass::Agree;
    bool BaselineDirty = false;
    bool Crashed = false;
    size_t Variant = 0;
    std::string Detail;
  };
  std::vector<CrossCase> Cases(Opts.Runs);
  {
    std::unique_ptr<ThreadPool> Pool;
    if (Opts.Threads != 1)
      Pool = std::make_unique<ThreadPool>(Opts.Threads);
    PassTimer T(Opts.Stats, "fuzz/crossval/run_cases");
    parallelFor(Pool.get(), Opts.Runs, [&](size_t I) {
      KernelProgram P = buildCase(CaseSeeds[I], Opts, Corpus, Mutator);
      CrossCase &CC = Cases[I];
      for (size_t V = 0; V < Variants.size(); ++V) {
        ScopedFatalErrorTrap Trap;
        try {
          std::string Detail;
          CrossClass Class =
              crossValidateOnce(P, Variants[V], Linter, Detail);
          if (Class == CrossClass::BaselineDirty) {
            CC.BaselineDirty = true;
            continue;
          }
          if (Class != CrossClass::Agree &&
              CC.Class == CrossClass::Agree) {
            CC.Class = Class;
            CC.Variant = V;
            CC.Detail = std::move(Detail);
          }
        } catch (const FatalError &E) {
          // Strict-mode stage crashes (incl. verifier deaths) belong to
          // the differential campaign; here they just end this variant.
          if (!CC.Crashed) {
            CC.Crashed = true;
            CC.Detail = "[" + Variants[V].Name + "] " + E.message();
          }
        }
      }
    });
  }

  // Serial triage + reduction, in case order.
  for (size_t I = 0; I < Cases.size(); ++I) {
    const CrossCase &Case = Cases[I];
    if (Case.BaselineDirty)
      ++Res.LintBaselineDirty;
    if (Case.Class == CrossClass::Agree) {
      if (Case.Crashed)
        ++Res.Crashes;
      else
        ++Res.Passes;
      continue;
    }
    if (Case.Class == CrossClass::ConfirmedButPass)
      ++Res.CrossConfirmedButPass;
    else
      ++Res.CrossMismatchUnproved;
    ++Res.Mismatches;

    FuzzFailure Fail;
    Fail.CaseIndex = I;
    Fail.CaseSeed = CaseSeeds[I];
    Fail.Outcome = FuzzOutcome::Mismatch;
    Fail.VariantName = Variants[Case.Variant].Name;
    Fail.Detail = Case.Detail;
    KernelProgram P = buildCase(CaseSeeds[I], Opts, Corpus, Mutator);
    Fail.OriginalOps = P.Func->totalOps();
    Fail.ReducedOps = Fail.OriginalOps;
    if (Opts.Log)
      *Opts.Log << "fuzz: case " << I << " (seed 0x" << hexSeed(Fail.CaseSeed)
                << ") " << fuzzOutcomeName(Fail.Outcome) << ": "
                << Fail.Detail << "\n";

    if (Opts.Reduce) {
      // The oracle is the discrepancy itself: a candidate reproduces only
      // if the same disagreement class recurs on the same variant.
      const FuzzVariant &Variant = Variants[Case.Variant];
      CrossClass Want = Case.Class;
      CaseOracle Oracle = [&Variant, &Linter,
                           Want](const KernelProgram &Cand) {
        ScopedFatalErrorTrap Trap;
        try {
          std::string Detail;
          return OracleVerdict{crossValidateOnce(Cand, Variant, Linter,
                                                 Detail) == Want
                                   ? FuzzOutcome::Mismatch
                                   : FuzzOutcome::Pass,
                               EquivResult::Divergence::None};
        } catch (const FatalError &) {
          return OracleVerdict{FuzzOutcome::Pass,
                               EquivResult::Divergence::None};
        }
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
        std::string Path = Opts.OutDir + "/crossval-" +
                           hexSeed(Fail.CaseSeed) + "-" + Fail.VariantName +
                           ".ir";
        std::string Error;
        if (writeFuzzProgramFile(RR.Reduced, Path, &Error)) {
          Fail.ReproducerPath = Path;
        } else if (Opts.Log) {
          *Opts.Log << "fuzz: cannot write reproducer: " << Error << "\n";
        }
      }
    } else {
      Fail.ReducedText = serializeFuzzProgram(P);
    }
    Res.Failures.push_back(std::move(Fail));
  }

  if (Opts.Stats) {
    Opts.Stats->addCount("fuzz/crossval/cases", Res.Cases);
    Opts.Stats->addCount("fuzz/crossval/pass", Res.Passes);
    Opts.Stats->addCount("fuzz/crossval/confirmed_but_pass",
                         Res.CrossConfirmedButPass);
    Opts.Stats->addCount("fuzz/crossval/mismatch_unproved",
                         Res.CrossMismatchUnproved);
    Opts.Stats->addCount("fuzz/crossval/baseline_dirty",
                         Res.LintBaselineDirty);
    Opts.Stats->addCount("fuzz/crossval/crash", Res.Crashes);
  }
  return Res;
}
