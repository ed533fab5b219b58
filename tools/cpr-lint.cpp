//===- tools/cpr-lint.cpp - Static semantic checker for CPR IR ------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Runs the built-in static checks of src/lint/ (docs/LINT.md) over a
// textual IR file (read as a corpus entry: its `; reg` directives declare
// the function's inputs), or -- with --workloads -- over every benchmark of the
// paper's suite both before and after the CPR treatment:
//
//   cpr-lint input.ir [options]
//   cpr-lint --workloads [options]
//
// Findings print as text; --stats-json additionally writes the
// `cpr-lint-v2` report, each finding carrying its witness. With
// --confirm-witnesses every solved witness is replayed through the
// interpreter and the run fails if any does not confirm. Fixture files
// may pin a schedule for the schedule checks with a sidecar comment the
// IR parser ignores:
//
//   ; lint-schedule(medium[,fetch=N]) @Block: 0 0 1 2 ...
//
// Exit codes (support/Diagnostic.h): 0 clean, 1 findings at error
// severity (or warning severity with --werror), 2 usage error, 3 input
// parse error, 4 input verification error.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "interp/Profiler.h"
#include "ir/Verifier.h"
#include "lint/Lint.h"
#include "lint/Witness.h"
#include "pipeline/CompilerPipeline.h"
#include "support/OptionParser.h"
#include "workloads/BenchmarkSuite.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace cpr;

namespace {

struct Config {
  std::string Checks;
  std::string Machine = "medium";
  std::string StatsJSON;
  bool Workloads = false;
  bool Werror = false;
  bool Quiet = false;
  bool ListChecks = false;
  bool ConfirmWitnesses = false;
  bool Help = false;
};

OptionTable buildOptions(Config &C) {
  OptionTable T;
  T.addFlag("--workloads",
            "lint every paper benchmark pre- and post-CPR instead of a file",
            C.Workloads);
  T.addString("--checks", "<a,b,...>",
              "run only the named checks (default: all)", C.Checks);
  T.addString("--machine", "<name|all>",
              "machine model(s) for schedule-legality (default: medium)",
              C.Machine);
  T.addString("--stats-json", "<file>",
              "write the cpr-lint-v2 JSON report to <file> ('-' = stdout)",
              C.StatsJSON);
  T.addFlag("--werror", "treat warning-severity findings as errors",
            C.Werror);
  T.addFlag("--confirm-witnesses",
            "replay every solved witness through the interpreter; fail "
            "if any does not confirm",
            C.ConfirmWitnesses);
  T.addFlag("--list-checks", "print the available checks and exit",
            C.ListChecks);
  T.addFlag("--quiet", "suppress per-function progress lines", C.Quiet);
  T.addFlag("--help", "show this help", C.Help);
  return T;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char Ch : S) {
    if (Ch == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += Ch;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

/// Resolves --machine into the model list for schedule-legality.
bool resolveMachines(const std::string &Name,
                     std::vector<MachineDesc> &Out) {
  if (Name == "all") {
    Out = MachineDesc::paperModels();
    return true;
  }
  const MachineDesc *MD = MachineDesc::findPaperModel(Name);
  if (!MD)
    return false;
  Out = {*MD};
  return true;
}

struct Report {
  JSONValue Functions = JSONValue::array();
  unsigned Errors = 0;
  unsigned Warnings = 0;
  unsigned WitnessesConfirmed = 0;
  unsigned WitnessesUnsolved = 0;
  unsigned WitnessesUnconfirmed = 0;
};

/// Lints one function, prints findings, and appends to the report.
/// \p Label names the entry in output ("<func>" or "<func> (post-cpr)").
/// \p Inputs declares environment-initialized registers (a workload's
/// InitRegs) so uninit-read does not flag the kernel's arguments.
void lintOne(const LintDriver &Driver, const Function &F,
             const std::string &Label, const Config &C, Report &R,
             const std::vector<RegBinding> *Inputs = nullptr) {
  LintResult Res = Driver.run(F, nullptr, Inputs);
  if (!C.Quiet)
    std::printf("cpr-lint: %s: %zu finding(s)\n", Label.c_str(),
                Res.Findings.size());
  for (const LintFinding &Finding : Res.Findings)
    std::printf("%s\n", Finding.str().c_str());
  if (C.ConfirmWitnesses) {
    for (const LintFinding &Finding : Res.Findings) {
      if (!Finding.Witness || !Finding.Witness->Solved) {
        ++R.WitnessesUnsolved;
        std::printf("cpr-lint: witness [%s] @%s: unsolved (%s)\n",
                    Finding.Check.c_str(), Finding.Block.c_str(),
                    Finding.Witness ? Finding.Witness->UnsolvedWhy.c_str()
                                    : "finding carries no witness");
        continue;
      }
      WitnessConfirmation WC = confirmWitness(F, *Finding.Witness);
      if (WC.Confirmed)
        ++R.WitnessesConfirmed;
      else
        ++R.WitnessesUnconfirmed;
      std::printf("cpr-lint: witness [%s] @%s: %s (%s)\n",
                  Finding.Check.c_str(), Finding.Block.c_str(),
                  WC.Confirmed ? "confirmed" : "NOT CONFIRMED",
                  WC.Detail.c_str());
    }
  }
  R.Errors += Res.errorCount();
  R.Warnings +=
      Res.countAtLeast(DiagSeverity::Warning) - Res.errorCount();
  JSONValue Entry = lintResultToJSON(Label, Res);
  R.Functions.append(std::move(Entry));
}

int finish(const Config &C, Report &R) {
  if (!C.StatsJSON.empty()) {
    JSONValue Root = JSONValue::object();
    Root.set("schema", JSONValue::str("cpr-lint-v2"));
    Root.set("functions", std::move(R.Functions));
    JSONValue Totals = JSONValue::object();
    Totals.set("error", JSONValue::number(R.Errors));
    Totals.set("warning", JSONValue::number(R.Warnings));
    if (C.ConfirmWitnesses) {
      Totals.set("witnesses_confirmed",
                 JSONValue::number(R.WitnessesConfirmed));
      Totals.set("witnesses_unsolved",
                 JSONValue::number(R.WitnessesUnsolved));
      Totals.set("witnesses_unconfirmed",
                 JSONValue::number(R.WitnessesUnconfirmed));
    }
    Root.set("totals", std::move(Totals));
    std::string Out = writeJSON(Root);
    if (C.StatsJSON == "-") {
      std::printf("%s\n", Out.c_str());
    } else {
      std::ofstream OS(C.StatsJSON);
      if (!OS) {
        std::fprintf(stderr, "cpr-lint: cannot write %s\n",
                     C.StatsJSON.c_str());
        return exit_codes::Failure;
      }
      OS << Out << "\n";
    }
  }
  if (R.WitnessesUnconfirmed > 0) {
    std::fprintf(stderr,
                 "cpr-lint: %u witness(es) failed to confirm on replay\n",
                 R.WitnessesUnconfirmed);
    return exit_codes::Failure;
  }
  if (R.Errors > 0 || (C.Werror && R.Warnings > 0))
    return exit_codes::Failure;
  return exit_codes::Success;
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  OptionTable T = buildOptions(C);
  std::string Error;
  std::vector<std::string> Inputs;
  if (!T.parse(argc, argv, Error, &Inputs)) {
    std::fprintf(stderr, "cpr-lint: %s\n", Error.c_str());
    return exit_codes::UsageError;
  }
  if (C.Help) {
    std::printf("%s", T.help("cpr-lint <input.ir> [options]\n"
                             "cpr-lint --workloads [options]")
                          .c_str());
    return exit_codes::Success;
  }

  LintOptions Opts;
  if (!resolveMachines(C.Machine, Opts.Machines)) {
    std::fprintf(stderr, "cpr-lint: unknown machine '%s'\n",
                 C.Machine.c_str());
    return exit_codes::UsageError;
  }
  Opts.OnlyChecks = splitList(C.Checks);
  if (C.ListChecks) {
    for (const LintCheck &Check : lintChecks())
      std::printf("%-26s %s\n", Check.Name, Check.Description);
    return exit_codes::Success;
  }
  for (const std::string &Name : Opts.OnlyChecks) {
    bool Known = false;
    for (const LintCheck &Check : lintChecks())
      if (Name == Check.Name)
        Known = true;
    if (!Known) {
      std::fprintf(stderr, "cpr-lint: unknown check '%s'; available:\n",
                   Name.c_str());
      for (const LintCheck &Check : lintChecks())
        std::fprintf(stderr, "  %s\n", Check.Name);
      return exit_codes::UsageError;
    }
  }

  Report R;
  if (C.Workloads) {
    if (!Inputs.empty()) {
      std::fprintf(stderr,
                   "cpr-lint: --workloads takes no input files\n");
      return exit_codes::UsageError;
    }
    LintDriver Driver(Opts);
    for (const BenchmarkSpec &Spec : paperBenchmarkSuite()) {
      KernelProgram P = Spec.Build();
      lintOne(Driver, *P.Func, Spec.Name, C, R, &P.InitRegs);
      Memory Mem = P.InitMem;
      ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
      std::unique_ptr<Function> Treated =
          applyControlCPR(*P.Func, Prof, CPROptions());
      lintOne(Driver, *Treated, Spec.Name + " (post-cpr)", C, R,
              &P.InitRegs);
    }
    return finish(C, R);
  }

  if (Inputs.size() != 1) {
    std::fprintf(stderr,
                 "cpr-lint: expected exactly one input file (see --help)\n");
    return exit_codes::UsageError;
  }
  std::ifstream In(Inputs[0]);
  if (!In) {
    std::fprintf(stderr, "cpr-lint: cannot read %s\n", Inputs[0].c_str());
    return exit_codes::Failure;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();

  // The corpus reader: a file's `; reg` bindings are the function's
  // declared inputs, as for a workload's InitRegs.
  FuzzParseResult FP = parseFuzzProgram(Text);
  if (!FP) {
    std::fprintf(stderr, "cpr-lint: %s: error: %s\n", Inputs[0].c_str(),
                 FP.Error.c_str());
    return exit_codes::ParseError;
  }
  const Function &F = *FP.Program.Func;
  // Complete verification report, not just the first violation
  // (ir/Verifier reportVerification).
  DiagnosticEngine VerifyDiags;
  if (reportVerification(F, VerifyDiags, "cpr-lint input") > 0) {
    for (const Diagnostic &D : VerifyDiags.diagnostics())
      std::fprintf(stderr, "cpr-lint: %s\n", D.str().c_str());
    return exit_codes::VerifyError;
  }

  if (Status S = parseInjectedSchedules(Text, Opts.Schedules); !S) {
    std::fprintf(stderr, "cpr-lint: %s\n", S.diagnostic().str().c_str());
    return exit_codes::ParseError;
  }
  LintDriver Driver(Opts);
  lintOne(Driver, F, F.getName(), C, R, &FP.Program.InitRegs);
  return finish(C, R);
}
