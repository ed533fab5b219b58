//===- tools/cpr-fuzz.cpp - CPR fuzzing front end -------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Command-line front end of the fuzzing subsystem (src/fuzz/): runs
// campaigns of random and corpus-mutated programs through one of three
// oracles (differential by default), reduces failures to minimal
// reproducers, and replays saved `.ir` reproducers.
//
//   cpr-fuzz --seed=1 --runs=200 --threads=4        # campaign
//   cpr-fuzz --corpus=dir --runs=100 --reduce --out=dir
//   cpr-fuzz repro.ir [repro2.ir ...]               # replay mode
//   cpr-fuzz --fault-campaign                       # fault injection
//   cpr-fuzz --static-oracle --runs=200             # lint-judged campaign
//   cpr-fuzz --cross-validate --runs=100            # oracle-vs-oracle
//
// Replay judges each file under the oracle the flags select. Campaigns
// are deterministic for a fixed --seed at any --threads setting; see
// docs/FUZZING.md for the triage workflow and
// docs/ROBUSTNESS.md for the fault-injection campaign.
//
// Exit codes (support/Diagnostic.h): 0 clean, 1 findings/contract
// violations, 2 usage error, 3 unloadable replay input.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/FaultCampaign.h"
#include "fuzz/Fuzzer.h"
#include "support/Diagnostic.h"
#include "support/FaultInjector.h"
#include "support/OptionParser.h"
#include "support/Statistics.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

using namespace cpr;

namespace {

struct Config {
  FuzzCampaignOptions Campaign;
  FaultCampaignOptions Fault;
  bool FaultCampaign = false;
  bool StaticOracle = false;
  bool CrossValidate = false;
  std::string FaultSites;
  std::string StatsJSON;
  bool ExpectFailures = false;
  bool Quiet = false;
  bool Help = false;
};

OptionTable buildOptions(Config &C) {
  OptionTable T;
  T.add({"--seed", OptArg::Joined, "<n>",
         "campaign seed (default 1)",
         [&C](const std::string &V) {
           char *End = nullptr;
           unsigned long long N = std::strtoull(V.c_str(), &End, 0);
           if (V.empty() || *End != '\0')
             return false;
           C.Campaign.Seed = N;
           return true;
         }});
  T.addUnsigned("--runs", "<n>", "number of fuzz cases (default 100)",
                C.Campaign.Runs);
  T.addUnsigned("--threads", "<n>",
                "worker threads; outcome is thread-count independent "
                "(0 = all cores)",
                C.Campaign.Threads);
  T.addString("--corpus", "<dir>",
              "directory of seed .ir programs to mutate", C.Campaign.CorpusDir);
  T.addDouble("--mutate-frac", "<f>",
              "fraction of cases mutated from the corpus (default 0.5)",
              C.Campaign.MutateFrac);
  T.addFlag("--reduce", "delta-debug failures to minimal reproducers",
            C.Campaign.Reduce);
  T.addString("--out", "<dir>",
              "existing directory reduced reproducers are written to",
              C.Campaign.OutDir);
  T.addUnsigned("--max-loop-depth", "<n>", "generator: max loop nesting",
                C.Campaign.Generator.MaxLoopDepth);
  T.addDouble("--predicate-density", "<f>",
              "generator: guarded-operation probability",
              C.Campaign.Generator.PredicateDensity);
  T.addDouble("--alias-chaos", "<f>",
              "generator: probability memory ops use the "
              "aliases-everything class",
              C.Campaign.Generator.AliasChaos);
  T.addDouble("--unbiased-frac", "<f>",
              "generator: fraction of ~50/50 side exits",
              C.Campaign.Generator.UnbiasedFrac);
  T.addDouble("--synthetic-frac", "<f>",
              "generator: fraction of SPEC-shaped synthetic programs",
              C.Campaign.Generator.SyntheticFrac);
  T.addFlag("--fault-campaign",
            "run the fault-injection campaign: arm each registered fault "
            "site and assert rollback + equivalent output (serial)",
            C.FaultCampaign);
  T.addString("--fault-sites", "<s1,s2,...>",
              "fault campaign: comma-separated site names "
              "(default: every registered site)",
              C.FaultSites);
  T.addUnsigned("--fault-cases", "<n>",
                "fault campaign: generated programs per site (default 3)",
                C.Fault.CasesPerSite);
  T.addUnsigned("--fault-nth", "<n>",
                "fault campaign: arm each site for its 1st..nth hit "
                "(default 2)",
                C.Fault.NthHits);
  T.addFlag("--static-oracle",
            "judge cases with the cpr-lint static checks instead of the "
            "interpreter (differential: pre-existing findings excluded)",
            C.StaticOracle);
  T.addFlag("--cross-validate",
            "judge each case with BOTH oracles (differential execution "
            "and witness-replaying static checks); any disagreement is a "
            "harness bug",
            C.CrossValidate);
  T.addFlag("--inject-defect",
            "plant the hidden compensation-skip miscompile (oracle "
            "self-test)",
            C.Campaign.InjectDefect);
  T.addFlag("--expect-failures",
            "invert the exit status: succeed only if failures were found",
            C.ExpectFailures);
  T.addString("--stats-json", "<file>",
              "write campaign counters and wall times as JSON", C.StatsJSON);
  T.addFlag("--quiet", "suppress per-failure progress lines", C.Quiet);
  T.addFlag("--help", "print this help", C.Help);
  T.addFlag("-h", "print this help", C.Help);
  return T;
}

/// Replays saved reproducers through every variant under the campaign's
/// judge. Counts files with any non-pass variant (Failing) separately
/// from files that could not even be loaded (Unloadable) so main() can
/// exit with the distinct parse-error code for the latter.
void replayFiles(const std::vector<std::string> &Files, const Config &C,
                 int &Failing, int &Unloadable) {
  FuzzJudge Judge(C.Campaign.Oracle, C.Campaign.Variants,
                  C.Campaign.Machines);
  for (const std::string &Path : Files) {
    FuzzParseResult PR = loadFuzzProgramFile(Path);
    if (!PR) {
      std::fprintf(stderr, "cpr-fuzz: error: %s\n", PR.Error.c_str());
      ++Unloadable;
      continue;
    }
    CaseVerdict Case = Judge.judgeCase(PR.Program);
    if (Case.Worst.Outcome == FuzzOutcome::Pass) {
      std::printf("%s: pass (%zu variants)\n", Path.c_str(),
                  Judge.variants().size());
      continue;
    }
    ++Failing;
    std::printf("%s: %s: %s\n", Path.c_str(),
                fuzzOutcomeName(Case.Worst.Outcome),
                Case.Worst.Detail.c_str());
  }
}

/// Splits a comma-separated --fault-sites list, validating each name
/// against the registry. Returns false (with a message) on unknown sites.
bool parseFaultSites(const std::string &List,
                     std::vector<std::string> &Sites, std::string &Error) {
  size_t Pos = 0;
  while (Pos <= List.size()) {
    size_t Comma = List.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = List.size();
    std::string Name = List.substr(Pos, Comma - Pos);
    if (!Name.empty()) {
      if (!fault::isKnownSite(Name)) {
        Error = "unknown fault site '" + Name + "' (known:";
        for (const std::string &S : fault::sites())
          Error += " " + S;
        Error += ")";
        return false;
      }
      Sites.push_back(Name);
    }
    Pos = Comma + 1;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  OptionTable Options = buildOptions(C);
  const std::string Usage =
      "usage: cpr-fuzz [options]              run a fuzzing campaign\n"
      "       cpr-fuzz [options] <repro.ir>...  replay saved reproducers\n"
      "       cpr-fuzz --fault-campaign [options]  fault-injection "
      "campaign";

  std::string ParseError;
  std::vector<std::string> Positional;
  if (!Options.parse(argc, argv, ParseError, &Positional)) {
    std::fprintf(stderr, "cpr-fuzz: %s\n%s", ParseError.c_str(),
                 Options.help(Usage).c_str());
    return exit_codes::UsageError;
  }
  if (C.Help) {
    std::printf("%s", Options.help(Usage).c_str());
    return exit_codes::Success;
  }
  if (C.FaultCampaign && !Positional.empty()) {
    std::fprintf(stderr,
                 "cpr-fuzz: --fault-campaign takes no reproducer files\n");
    return exit_codes::UsageError;
  }
  if (C.StaticOracle && C.CrossValidate) {
    std::fprintf(stderr,
                 "cpr-fuzz: --static-oracle and --cross-validate are "
                 "mutually exclusive\n");
    return exit_codes::UsageError;
  }
  if (C.StaticOracle)
    C.Campaign.Oracle = FuzzOracle::StaticLint;
  if (C.CrossValidate)
    C.Campaign.Oracle = FuzzOracle::CrossValidate;

  // Replay mode: positional reproducer files, no campaign.
  if (!Positional.empty()) {
    fault::ScopedFault Inject("cpr.restructure.compensation",
                              C.Campaign.InjectDefect ? fault::EveryHit : 0);
    int Failing = 0, Unloadable = 0;
    replayFiles(Positional, C, Failing, Unloadable);
    if (C.ExpectFailures)
      return Failing + Unloadable > 0 ? exit_codes::Success
                                      : exit_codes::Failure;
    if (Unloadable > 0)
      return exit_codes::ParseError;
    return Failing > 0 ? exit_codes::Failure : exit_codes::Success;
  }

  StatsRegistry Stats;
  if (!C.StatsJSON.empty()) {
    C.Campaign.Stats = &Stats;
    C.Fault.Stats = &Stats;
  }
  if (!C.Quiet) {
    C.Campaign.Log = &std::cerr;
    C.Fault.Log = &std::cerr;
  }

  // Fault-injection campaign: arm every site (or the --fault-sites
  // subset) and assert the fail-safe recovery contract. Serial by design.
  if (C.FaultCampaign) {
    if (!C.FaultSites.empty()) {
      std::string Error;
      if (!parseFaultSites(C.FaultSites, C.Fault.Sites, Error)) {
        std::fprintf(stderr, "cpr-fuzz: %s\n", Error.c_str());
        return exit_codes::UsageError;
      }
    }
    C.Fault.Seed = C.Campaign.Seed;
    C.Fault.Generator = C.Campaign.Generator;
    FaultCampaignResult Res = runFaultCampaign(C.Fault);
    std::printf("fault campaign: %s\n", Res.summary().c_str());
    for (const std::string &F : Res.Failures)
      std::printf("violation: %s\n", F.c_str());
    if (!C.StatsJSON.empty()) {
      std::string Error;
      if (!writeStatsJSONFile(Stats, C.StatsJSON, &Error)) {
        std::fprintf(stderr, "cpr-fuzz: %s\n", Error.c_str());
        return exit_codes::Failure;
      }
    }
    if (C.ExpectFailures)
      return Res.clean() ? exit_codes::Failure : exit_codes::Success;
    return Res.clean() ? exit_codes::Success : exit_codes::Failure;
  }

  FuzzCampaignResult Res = runFuzzCampaign(C.Campaign);
  std::printf("%s\n", Res.summary().c_str());
  for (const FuzzFailure &F : Res.Failures)
    if (!F.ReproducerPath.empty())
      std::printf("reproducer: %s (%zu -> %zu ops)\n",
                  F.ReproducerPath.c_str(), F.OriginalOps, F.ReducedOps);

  if (!C.StatsJSON.empty()) {
    std::string Error;
    if (!writeStatsJSONFile(Stats, C.StatsJSON, &Error)) {
      std::fprintf(stderr, "cpr-fuzz: %s\n", Error.c_str());
      return exit_codes::Failure;
    }
  }
  if (C.ExpectFailures)
    return Res.clean() ? exit_codes::Failure : exit_codes::Success;
  return Res.clean() ? exit_codes::Success : exit_codes::Failure;
}
