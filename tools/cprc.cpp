//===- tools/cprc.cpp - Command-line control CPR driver -------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// A command-line driver over the library: reads a program in the corpus
// format (textual IR after optional `; reg` / `; mem` input directives,
// fuzz/Corpus.h), compiles it, and prints the result. --reg/--mem flags
// append to the directives, so a fuzz reproducer runs as-is.
//
//   cprc input.cpr [options]     (see --help; the option list below is
//                                 generated from one declarative table)
//
// The whole compile is one staged pipeline session (pipeline/PipelineRun.h,
// docs/PIPELINE.md): unroll, profile, transform (under --lint, --fail-safe,
// --region-equivalence and the budgets), the equivalence oracle, and the
// estimate and simulation fan-out over --threads. cprc adds only what the
// session has no stage for: if-conversion and --simplify before it, and
// --phase=frp|speculate|none, injected as the treated function. --fail-safe
// selects the recoverable model of docs/ROBUSTNESS.md: failing regions roll
// back, budgets degrade to the baseline, and diagnostics print at exit.
// --server=<socket> compiles the same program on a cprd daemon
// (docs/SERVICE.md); each mode rejects the other mode's flags.
//
// Exit codes (support/Diagnostic.h): 0 success, 1 failure (I/O, a
// baseline that does not halt, recovered-but-degraded fail-safe compile),
// 2 usage error, 3 input IR parse error, 4 input IR verification error.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisCache.h"
#include "analysis/ProfileIO.h"
#include "cpr/PredicateSpeculation.h"
#include "fuzz/Corpus.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "pipeline/PipelineRun.h"
#include "regions/DeadCodeElim.h"
#include "regions/FRPConversion.h"
#include "regions/IfConversion.h"
#include "regions/Simplify.h"
#include "sched/ListScheduler.h"
#include "serve/Client.h"
#include "support/Diagnostic.h"
#include "support/OptionParser.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

using namespace cpr;

namespace {

/// Everything the option table fills in.
struct Config {
  std::string InputPath;
  std::string Server;
  std::string Phase = "all";
  std::string ScheduleFor;
  std::string ProfileOut, ProfileIn, TraceOut, StatsJSON;
  unsigned UnrollFactor = 1;
  unsigned Threads = 1;
  bool Simplify = false, IfConvert = false;
  bool Run = false, Estimate = false, Simulate = false;
  bool CheckEquiv = false;
  bool FailSafe = false, RegionEquiv = false;
  bool Lint = false, Werror = false;
  unsigned InterpMaxSteps = 0;
  unsigned TransformSteps = 0, TransformMs = 0;
  unsigned Retries = 3;
  unsigned DeadlineMs = 0;
  bool Help = false;
  int MispredictPenalty = -1;
  std::vector<PredictorKind> Predictors;
  /// First unrecognized --predictor= name; reported after parsing so the
  /// message can list the registered predictors (a recoverable usage
  /// diagnostic, not a generic option error).
  std::string BadPredictor;
  FrontendOptions Frontend;
  PrintOptions PO;
  CPROptions CPR;
  std::vector<RegBinding> InitRegs;
  Memory InitMem;
};

/// The declarative option table; --help output is generated from it.
OptionTable buildOptions(Config &C) {
  OptionTable T;
  T.addString("--phase", "<frp|speculate|cpr|all|none>",
              "stop after the named phase (default all)", C.Phase);
  T.addFlag("--run", "interpret the (final) program", C.Run);
  T.add({"--reg", OptArg::Separate, "rN=V",
         "initial register value, repeatable, after the file's `; reg` "
         "inputs; runs need enough inputs to halt",
         [&C](const std::string &V) {
           RegBinding B;
           if (!parseRegBinding(V, B))
             return false;
           C.InitRegs.push_back(B);
           return true;
         }});
  T.add({"--mem", OptArg::Separate, "A=V",
         "initial memory cell, repeatable, after the file's `; mem` inputs",
         [&C](const std::string &V) {
           size_t Eq = V.find('=');
           if (Eq == std::string::npos)
             return false;
           C.InitMem.store(std::strtoll(V.c_str(), nullptr, 10),
                           std::strtoll(V.c_str() + Eq + 1, nullptr, 10));
           return true;
         }});
  T.addString("--schedule", "<machine>",
              "print the schedule for one machine", C.ScheduleFor);
  T.addFlag("--estimate",
            "per-machine cycle estimates (needs a profileable program)",
            C.Estimate);
  T.addDouble("--exit-weight", "<f>", "CPR exit-weight threshold",
              C.CPR.ExitWeightThreshold);
  T.addDouble("--predict-taken", "<f>", "CPR predict-taken threshold",
              C.CPR.PredictTakenThreshold);
  T.addUnsigned("--max-branches", "<n>", "CPR branches-per-block cap",
                C.CPR.MaxBranchesPerBlock);
  T.addFlag("--no-speculation", "disable predicate speculation",
            C.CPR.EnablePredicateSpeculation, /*Value=*/false);
  T.addFlag("--no-taken-variation", "disable the taken-variation schema",
            C.CPR.EnableTakenVariation, /*Value=*/false);
  T.addFlag("--simplify", "run simplify + DCE before the phases",
            C.Simplify);
  T.addFlag("--if-convert", "if-convert before the phases", C.IfConvert);
  T.addUnsigned("--unroll", "<n>", "unroll self-loop blocks by this factor",
                C.UnrollFactor);
  T.addFlag("--show-ids", "print stable operation ids", C.PO.ShowOpIds);
  T.addString("--profile-out", "<file>", "save the baseline profile",
              C.ProfileOut);
  T.addString("--profile-in", "<file>", "load a profile instead of running",
              C.ProfileIn);
  T.addFlag("--check-equivalence",
            "run the baseline/transformed equivalence oracle", C.CheckEquiv);
  T.addFlag("--fail-safe",
            "recoverable compile: roll failing regions back instead of "
            "aborting; diagnostics print at exit",
            C.FailSafe);
  T.addFlag("--region-equivalence",
            "fail-safe: re-check equivalence after each region and roll "
            "back on mismatch (expensive)",
            C.RegionEquiv);
  T.addFlag("--lint",
            "run the static semantic checks before and after the phases; "
            "with --fail-safe, regions whose transform introduces a "
            "finding roll back",
            C.Lint);
  T.addFlag("--werror",
            "exit nonzero when any warning-severity diagnostic was "
            "reported (budget exhaustion, lint warnings, ...)",
            C.Werror);
  T.addUnsigned("--interp-max-steps", "<n>",
                "step cap of every interpreter run (0 = the default)",
                C.InterpMaxSteps);
  T.addUnsigned("--transform-steps", "<n>",
                "transform budget: max CPR block transforms "
                "(0 = unlimited)",
                C.TransformSteps);
  T.addUnsigned("--transform-ms", "<n>",
                "transform budget: wall-clock cap in ms (0 = unlimited)",
                C.TransformMs);
  T.addFlag("--simulate",
            "trace-driven dynamic estimates for baseline and transformed "
            "code",
            C.Simulate);
  std::string PredMeta = "<";
  for (const PredictorInfo &PI : predictorRegistry())
    PredMeta += std::string(PI.Name) + "|";
  PredMeta += "all>";
  T.add({"--predictor", OptArg::Joined, PredMeta,
         "predictor(s) to simulate, repeatable (default all)",
         [&C](const std::string &V) {
           if (V == "all") {
             C.Predictors = allPredictorKinds();
             return true;
           }
           PredictorKind K;
           if (!parsePredictorKind(V, K)) {
             // Defer: report one rich diagnostic naming the registered
             // predictors instead of the table's generic option error.
             if (C.BadPredictor.empty())
               C.BadPredictor = V;
             return true;
           }
           C.Predictors.push_back(K);
           return true;
         }});
  T.add({"--btb", OptArg::Joined, "<SETSxWAYS|off>",
         "model a set-associative BTB in --simulate (e.g. 64x4); taken "
         "branches whose target misses pay a redirect penalty",
         [&C](const std::string &V) {
           if (V == "off") {
             C.Frontend.UseBTB = false;
             return true;
           }
           BTBConfig B;
           if (!parseBTBConfig(V, B))
             return false;
           C.Frontend.UseBTB = true;
           C.Frontend.BTB = B;
           return true;
         }});
  T.add({"--btb-miss-penalty", OptArg::Joined, "<n>",
         "redirect cycles for a BTB miss (default: per machine)",
         [&C](const std::string &V) {
           char *End = nullptr;
           long N = std::strtol(V.c_str(), &End, 10);
           if (V.empty() || *End != '\0' || N < 0)
             return false;
           C.Frontend.BTBMissPenalty = static_cast<int>(N);
           return true;
         }});
  T.add({"--fetch-width", OptArg::Joined, "<n>",
         "decoupled-frontend fetch model in --simulate: ops fetched per "
         "cycle, taken branches end the packet (0 = machine fetch width)",
         [&C](const std::string &V) {
           char *End = nullptr;
           long N = std::strtol(V.c_str(), &End, 10);
           if (V.empty() || *End != '\0' || N < 0)
             return false;
           C.Frontend.Decoupled = true;
           C.Frontend.FetchWidth = static_cast<int>(N);
           return true;
         }});
  T.add({"--mispredict-penalty", OptArg::Joined, "<n>",
         "penalty cycles (default: per machine)",
         [&C](const std::string &V) {
           char *End = nullptr;
           long N = std::strtol(V.c_str(), &End, 10);
           if (V.empty() || *End != '\0' || N < 0)
             return false;
           C.MispredictPenalty = static_cast<int>(N);
           return true;
         }});
  T.addString("--trace-out", "<file>", "save the baseline branch trace",
              C.TraceOut);
  T.addUnsigned("--threads", "<n>",
                "worker threads for estimates/simulations (0 = all cores)",
                C.Threads);
  T.addString("--stats-json", "<file>",
              "write per-stage counters and wall times as JSON", C.StatsJSON);
  T.addString("--server", "<socket>",
              "compile on the cprd daemon at this socket instead of "
              "in-process (docs/SERVICE.md); CPR/budget flags travel "
              "with the request",
              C.Server);
  T.addUnsigned("--retries", "<n>",
                "with --server: retries on \"busy\" and transient IO "
                "failures (exponential backoff, default 3)",
                C.Retries);
  T.addUnsigned("--deadline-ms", "<n>",
                "with --server: whole-request deadline; bounds both the "
                "client's retry loop and the daemon's compile "
                "(0 = none)",
                C.DeadlineMs);
  T.addFlag("--help", "print this help", C.Help);
  T.addFlag("-h", "print this help", C.Help);
  return T;
}

/// Flags only a local compile serves, and flags only --server serves.
const std::vector<std::string_view> LocalOnlyFlags = {
    "--phase",         "--run",        "--schedule",      "--estimate",
    "--simplify",      "--if-convert", "--show-ids",      "--profile-out",
    "--profile-in",    "--simulate",   "--predictor",     "--btb",
    "--check-equivalence",             "--btb-miss-penalty",
    "--fetch-width",   "--trace-out",  "--mispredict-penalty",
    "--threads",       "--stats-json"};
const std::vector<std::string_view> ServerOnlyFlags = {"--retries",
                                                       "--deadline-ms"};

/// The first option of \p Flags on the command line, or "" if none.
std::string_view firstGiven(int argc, char **argv,
                            const std::vector<std::string_view> &Flags) {
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    Arg = Arg.substr(0, Arg.find('='));
    for (std::string_view F : Flags)
      if (Arg == F)
        return F;
  }
  return {};
}

/// --server=: ship the compile to a cprd daemon and render its response
/// the way a local compile would have. The program goes out in the
/// corpus format, with the --reg/--mem flags already merged into its
/// directives, so the frame is deterministic (docs/SERVICE.md: equal
/// frames hit the response cache).
int runServerMode(const Config &C, const KernelProgram &Program) {
  serve::CompileRequest Req;
  Req.Id = "cprc";
  Req.IR = serializeFuzzProgram(Program);
  Req.CPR = C.CPR;
  Req.UnrollFactor = C.UnrollFactor;
  Req.Lint = C.Lint;
  Req.RegionEquivalence = C.RegionEquiv;
  Req.InterpMaxSteps = C.InterpMaxSteps;
  Req.TransformBudget.MaxSteps = C.TransformSteps;
  Req.TransformBudget.MaxWallMs = C.TransformMs;
  // The daemon gets the full deadline, not the remainder after retries:
  // the frame must stay byte-identical across attempts so every retry
  // lands on the same cache entry.
  Req.DeadlineMs = C.DeadlineMs;

  serve::RetryPolicy Policy;
  Policy.MaxRetries = C.Retries;
  Policy.DeadlineMs = C.DeadlineMs;
  Expected<serve::CompileResponse> Res =
      serve::Client::callWithRetry(C.Server, Req, Policy);
  if (!Res) {
    std::fprintf(stderr, "cprc: error: %s\n",
                 Res.diagnostic().str().c_str());
    return exit_codes::Failure;
  }
  if (Res->Status == "busy") {
    std::fprintf(stderr,
                 "cprc: error: daemon still busy after %u retries\n",
                 C.Retries);
    return exit_codes::Failure;
  }

  unsigned Errors = 0, Warnings = 0;
  for (const serve::WireDiagnostic &D : Res->Diagnostics) {
    std::fprintf(stderr, "cprc: %s: %s [%s] (%s)\n", D.Severity.c_str(),
                 D.Message.c_str(), D.Code.c_str(), D.Site.c_str());
    if (D.Severity == "error" || D.Severity == "fatal")
      ++Errors;
    else if (D.Severity == "warning")
      ++Warnings;
  }

  if (!Res->ok()) {
    std::fprintf(stderr, "cprc: error: daemon answered status \"%s\"\n",
                 Res->Status.c_str());
    // Map the first error code onto the local exit-code convention so
    // scripts see the same exits either way.
    for (const serve::WireDiagnostic &D : Res->Diagnostics) {
      if (D.Code == "parse-error")
        return exit_codes::ParseError;
      if (D.Code == "verify-failed")
        return exit_codes::VerifyError;
    }
    return exit_codes::Failure;
  }

  std::fprintf(stderr,
               "cpr: %u region(s), %u CPR block(s) formed, %u "
               "transformed; response cache %s\n",
               Res->CPR.RegionsProcessed, Res->CPR.CPRBlocksFormed,
               Res->CPR.CPRBlocksTransformed,
               Res->CacheHits > 0 ? "hit" : "miss");
  std::printf("%s", Res->IR.c_str());
  return Errors > 0 || (C.Werror && Warnings > 0) ? exit_codes::Failure
                                                  : exit_codes::Success;
}

/// Whether the equivalence oracle reported a mismatch.
bool oracleMismatched(const DiagnosticEngine &Diags) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Code == DiagCode::OracleMismatch)
      return true;
  return false;
}

/// The local compile: one PipelineRun session over \p Program.
int runLocal(const Config &C, KernelProgram Program) {
  Function &F = *Program.Func;
  std::vector<std::string> Errors = verifyFunction(F);
  if (!Errors.empty()) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "%s: error: verifier: %s\n", C.InputPath.c_str(),
                   E.c_str());
    return exit_codes::VerifyError;
  }

  // Preparation the session has no stage for (applied to the shared
  // baseline, as the paper's IMPACT preprocessing was). --unroll, and the
  // simplify + DCE that follow it, are the session's.
  if (C.IfConvert) {
    IfConversionStats IS = ifConvert(F);
    verifyOrDie(F, "after if-conversion");
    std::fprintf(stderr, "if-convert: %u branch(es) folded, %u ops "
                 "predicated\n",
                 IS.BranchesConverted, IS.OpsPredicated);
  }
  if (C.Simplify && C.UnrollFactor < 2) {
    SimplifyStats SS = simplifyFunction(F);
    eliminateDeadCode(F);
    verifyOrDie(F, "after simplify");
    std::fprintf(stderr,
                 "simplify: %u folded, %u copies propagated, %u CSE\n",
                 SS.ConstantsFolded, SS.CopiesPropagated,
                 SS.ExpressionsReused);
  }

  const bool Transform = C.Phase == "cpr" || C.Phase == "all";
  const bool NeedTrace = C.Simulate || !C.TraceOut.empty();
  const bool NeedProfile = Transform || C.Estimate || C.CheckEquiv ||
                           NeedTrace || !C.ProfileOut.empty();
  StatsRegistry Stats;
  StatsRegistry *StatsPtr = C.StatsJSON.empty() ? nullptr : &Stats;
  const std::string Prefix = F.getName() + "/";
  DiagnosticEngine Diags(StatsPtr, Prefix);
  PipelineOptions Opts;
  Opts.CPR = C.CPR;
  Opts.UnrollFactor = C.UnrollFactor;
  Opts.CheckEquivalence = C.CheckEquiv;
  Opts.Simulate = NeedTrace;
  Opts.Predictors.clear();
  if (C.Simulate)
    Opts.Predictors = C.Predictors.empty() ? allPredictorKinds()
                                           : C.Predictors;
  Opts.MispredictPenalty = C.MispredictPenalty;
  Opts.Frontend = C.Frontend;
  Opts.FailSafe = C.FailSafe;
  Opts.RegionEquivalence = C.RegionEquiv;
  Opts.InterpMaxSteps = C.InterpMaxSteps;
  Opts.TransformBudget.MaxSteps = C.TransformSteps;
  Opts.TransformBudget.MaxWallMs = C.TransformMs;
  Opts.Lint = C.Lint;
  Opts.Diags = &Diags;
  // The paper machines are what the tables price and lint schedules on;
  // a plain compile schedules nothing.
  if (!C.Estimate && !C.Simulate && !C.Lint)
    Opts.Machines.clear();

  // The epilogue: a fail-safe compile may have been degraded (rollbacks,
  // budget skips, baseline fallback); its diagnostics print and fail it.
  auto Finish = [&](int Exit) {
    if (StatsPtr) {
      std::string Error;
      if (!writeStatsJSONFile(Stats, C.StatsJSON, &Error)) {
        std::fprintf(stderr, "cprc: error: %s\n", Error.c_str());
        Exit = exit_codes::Failure;
      }
    }
    for (const Diagnostic &D : Diags.diagnostics())
      std::fprintf(stderr, "cprc: %s\n", D.str().c_str());
    if (Diags.errorCount() > 0 ||
        (C.Werror && Diags.count(DiagSeverity::Warning) > 0))
      Exit = exit_codes::Failure;
    return Exit;
  };

  // --run interprets the output against the same inputs.
  const std::vector<RegBinding> InitRegs = Program.InitRegs;
  const Memory InitMem = Program.InitMem;
  PipelineRun Session(std::move(Program), Opts, StatsPtr, Prefix);

  if (!C.ProfileIn.empty()) {
    std::ifstream PIn(C.ProfileIn);
    if (!PIn) {
      std::fprintf(stderr, "cprc: error: cannot open profile '%s'\n",
                   C.ProfileIn.c_str());
      return exit_codes::Failure;
    }
    std::stringstream PBuf;
    PBuf << PIn.rdbuf();
    ProfileParseResult PP = parseProfile(PBuf.str());
    if (!PP) {
      std::fprintf(stderr, "%s: error: %s\n", C.ProfileIn.c_str(),
                   PP.Error.c_str());
      return exit_codes::ParseError;
    }
    Session.setBaselineProfile(std::move(PP.Profile));
  }

  // --phase=frp|speculate|none stop before the session's transform; their
  // output is the treated function.
  if (!Transform) {
    std::unique_ptr<Function> Phased = Session.baseline().clone();
    if (C.Phase != "none")
      convertFunctionToFRP(*Phased);
    if (C.Phase == "speculate")
      for (size_t I = 0; I < Phased->numBlocks(); ++I)
        if (!Phased->block(I).isCompensation())
          speculatePredicates(*Phased, Phased->block(I));
    Session.setTreated(std::move(Phased));
  }

  // Every stage the flags ask for, once; a baseline that does not run to
  // completion fails the compile with its one diagnostic.
  if (NeedProfile)
    if (!Session.tryPrepare())
      return Finish(exit_codes::Failure);

  if (!C.ProfileOut.empty()) {
    std::ofstream POut(C.ProfileOut);
    if (!POut) {
      std::fprintf(stderr, "cprc: error: cannot write profile '%s'\n",
                   C.ProfileOut.c_str());
      return exit_codes::Failure;
    }
    POut << serializeProfile(Session.baselineProfile(), Session.baseline());
  }

  if (Transform) {
    const CPRResult &CR = Session.cprResult();
    std::fprintf(stderr,
                 "cpr: %u region(s), %u CPR block(s) formed, %u "
                 "transformed (%u taken variation), %u ops moved "
                 "off-trace, %u split\n",
                 CR.RegionsProcessed, CR.CPRBlocksFormed,
                 CR.CPRBlocksTransformed, CR.TakenVariants,
                 CR.OpsMovedOffTrace, CR.OpsSplit);
    if (CR.BlocksRolledBack > 0 || CR.RegionsSkippedBudget > 0)
      std::fprintf(stderr,
                   "cpr: fail-safe: %u block(s) rolled back in %u "
                   "region(s), %u region(s) skipped on budget\n",
                   CR.BlocksRolledBack, CR.RegionsRolledBack,
                   CR.RegionsSkippedBudget);
  }

  const Function &Out = Session.treated();
  std::printf("%s", printFunction(Out, C.PO).c_str());

  if (C.Run) {
    Memory Mem = InitMem;
    InterpOptions IO;
    IO.MaxSteps = sessionStepCap(C.InterpMaxSteps);
    RunResult R = interpret(Out, Mem, InitRegs, IO);
    std::printf("\n; run: %s after %llu steps",
                R.halted() ? "halted" : R.ErrorMsg.c_str(),
                static_cast<unsigned long long>(R.Steps));
    if (!R.Observed.empty()) {
      std::printf("; observables:");
      for (size_t I = 0; I < R.Observed.size(); ++I)
        std::printf(" %s=%lld", Out.observableRegs()[I].str().c_str(),
                    static_cast<long long>(R.Observed[I]));
    }
    std::printf("\n");
  }

  if (const MachineDesc *MD = MachineDesc::findPaperModel(C.ScheduleFor)) {
    // One liveness solve and one dependence graph per non-empty block.
    FunctionAnalyses FA(Out, MD);
    for (size_t BI = 0; BI < Out.numBlocks(); ++BI) {
      const DepGraph *DG = FA.graphs()->graph(BI);
      if (!DG)
        continue;
      const Block &B = Out.block(BI);
      Schedule S = scheduleBlock(B, *DG, *MD);
      std::printf("\n; schedule of @%s on %s (length %d):\n",
                  B.getName().c_str(), MD->getName().c_str(), S.length());
      for (size_t OI = 0; OI < B.size(); ++OI)
        std::printf(";   cycle %3d  %s\n", S.cycleOf(OI),
                    printOperation(Out, B.ops()[OI], C.PO).c_str());
    }
  }

  if (C.CheckEquiv) {
    if (oracleMismatched(Diags))
      std::printf("\n; equivalence: MISMATCH; the session fell back to "
                  "the baseline (see diagnostics)\n");
    else
      std::printf("\n; equivalence: baseline and output agree on this "
                  "input\n");
  }

  if (!C.TraceOut.empty()) {
    std::ofstream TOut(C.TraceOut);
    if (!TOut) {
      std::fprintf(stderr, "cprc: error: cannot write trace '%s'\n",
                   C.TraceOut.c_str());
      return exit_codes::Failure;
    }
    TOut << serializeBranchTrace(Session.baselineTrace());
  }

  if (!C.Estimate && !C.Simulate)
    return Finish(exit_codes::Success);

  // The per-machine and machine x predictor tables: the session's fan-out.
  const size_t BaseEvents = C.Simulate ? Session.baselineTrace().size() : 0;
  const size_t TreatedEvents = C.Simulate ? Session.treatedTrace().size() : 0;
  std::unique_ptr<ThreadPool> Pool;
  if (C.Threads != 1)
    Pool = std::make_unique<ThreadPool>(C.Threads);
  PipelineResult Res = Session.finish(Pool.get());

  if (C.Estimate) {
    std::printf("\n; estimated cycles (baseline -> this output):\n");
    for (const MachineComparison &MC : Res.Machines)
      std::printf(";   %-10s %10.0f -> %10.0f   (%.2fx)\n",
                  MC.MachineName.c_str(), MC.BaselineCycles,
                  MC.TreatedCycles, MC.speedup());
  }

  if (C.Simulate) {
    std::printf("\n; dynamic simulation (baseline -> this output, "
                "%zu/%zu branch events):\n",
                BaseEvents, TreatedEvents);
    const bool FE = C.Frontend.UseBTB || C.Frontend.Decoupled;
    std::printf(";   %-10s %-9s %12s %9s %6s  -> %12s %9s %6s %8s",
                "machine", "pred", "cycles", "mispred", "MPKI", "cycles",
                "mispred", "MPKI", "speedup");
    if (FE)
      std::printf(" %9s %12s", "BTB-MPKI", "stalls");
    std::printf("\n");
    for (const SimComparison &SC : Res.Sim) {
      std::printf(";   %-10s %-9s %12.0f %9llu %6.2f  -> %12.0f %9llu "
                  "%6.2f %7.2fx",
                  SC.MachineName.c_str(), SC.PredictorName.c_str(),
                  SC.Baseline.TotalCycles,
                  static_cast<unsigned long long>(SC.Baseline.Mispredicts),
                  SC.Baseline.mpki(), SC.Treated.TotalCycles,
                  static_cast<unsigned long long>(SC.Treated.Mispredicts),
                  SC.Treated.mpki(), SC.speedup());
      if (FE)
        // Treated-side frontend detail: target-miss rate and fetch-stall
        // cycles of the output being measured.
        std::printf(" %9.2f %12llu", SC.Treated.btbMpki(),
                    static_cast<unsigned long long>(
                        SC.Treated.FetchStallCycles));
      std::printf("\n");
    }
  }
  return Finish(exit_codes::Success);
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  OptionTable Options = buildOptions(C);
  const std::string Usage = "usage: cprc <input.cpr> [options]";

  std::string ParseError;
  std::vector<std::string> Positional;
  if (!Options.parse(argc, argv, ParseError, &Positional)) {
    std::fprintf(stderr, "cprc: %s\n%s", ParseError.c_str(),
                 Options.help(Usage).c_str());
    return exit_codes::UsageError;
  }
  if (C.Help) {
    std::printf("%s", Options.help(Usage).c_str());
    return exit_codes::Success;
  }
  if (!C.BadPredictor.empty()) {
    Diagnostic D{DiagSeverity::Error, DiagCode::UsageError,
                 "unknown predictor '" + C.BadPredictor +
                     "'; registered predictors: " + predictorNamesList() +
                     " (or 'all')",
                 "cprc.options", 0};
    std::fprintf(stderr, "cprc: %s\n", D.str().c_str());
    return exit_codes::UsageError;
  }
  if (Positional.size() != 1) {
    std::fprintf(stderr, "%s", Options.help(Usage).c_str());
    return exit_codes::UsageError;
  }
  C.InputPath = Positional[0];

  // Usage errors come before any work: the other mode's flags, and the
  // combinations the one session cannot serve.
  const bool Server = !C.Server.empty();
  std::string Misuse;
  if (std::string_view Flag = firstGiven(
          argc, argv, Server ? LocalOnlyFlags : ServerOnlyFlags);
      !Flag.empty())
    Misuse = std::string(Flag) +
             (Server ? " is a local-compile flag; --server does not take it"
                     : " only applies with --server");
  else if (C.Phase != "frp" && C.Phase != "speculate" && C.Phase != "cpr" &&
           C.Phase != "all" && C.Phase != "none")
    Misuse = "unknown phase '" + C.Phase + "'";
  else if (C.Lint && C.Phase != "cpr" && C.Phase != "all")
    Misuse = "--lint checks the transform stage (--phase=all or cpr); run "
             "cpr-lint on the --phase=" + C.Phase + " output instead";
  else if (!C.ProfileIn.empty() && (C.Simulate || !C.TraceOut.empty()))
    Misuse = "--profile-in cannot be combined with --simulate or "
             "--trace-out: traces come from the session's own profiling "
             "run, whose profile would differ from the loaded one";
  else if (!C.ScheduleFor.empty() &&
           !MachineDesc::findPaperModel(C.ScheduleFor))
    Misuse = "unknown machine '" + C.ScheduleFor + "'";
  if (!Misuse.empty()) {
    std::fprintf(stderr, "cprc: %s\n", Misuse.c_str());
    return exit_codes::UsageError;
  }

  std::ifstream In(C.InputPath);
  if (!In) {
    std::fprintf(stderr, "cprc: error: cannot open '%s'\n",
                 C.InputPath.c_str());
    return exit_codes::Failure;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  // One reader for both modes: the file's `; reg` / `; mem` directives
  // are the program's inputs, and the flags append to them.
  FuzzParseResult FP = parseFuzzProgram(Buf.str());
  if (!FP) {
    std::fprintf(stderr, "%s: error: %s\n", C.InputPath.c_str(),
                 FP.Error.c_str());
    return exit_codes::ParseError;
  }
  for (const RegBinding &B : C.InitRegs)
    FP.Program.InitRegs.push_back(B);
  for (const auto &Cell : C.InitMem.sortedCells())
    FP.Program.InitMem.store(Cell.first, Cell.second);

  if (Server)
    return runServerMode(C, FP.Program);
  return runLocal(C, std::move(FP.Program));
}
