//===- bench/bench_sim_predictors.cpp - Table 2-dyn frontend sweep --------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The paper's Table 2 assumes perfect static knowledge of branch behavior:
// cycles are charged from profile frequencies alone, so collapsing a chain
// of predictable on-trace exits into one bypass branch is pure profit. The
// trace-driven simulator replays the real branch stream through hardware
// predictor models and charges a restart penalty per misprediction, which
// prices in the cost Section 8 warns about: the merged bypass branch is
// harder to predict than the branches it replaced.
//
// This driver runs the full Table 2-dyn frontend sweep (docs/SIMULATOR.md):
// workloads x machines x predictors (static, bimodal, gshare, local,
// tage-sc-l) x frontend configurations (flat penalty model, decoupled
// fetch + BTB), printing the per-(predictor, frontend) speedup tables and
// the MPKI / BTB-MPKI / fetch-stall detail. Each workload is one staged
// PipelineRun session (profile and traces computed once, shared by every
// cell), fanned out over --threads=<n>; every table and counter is
// byte-identical at any thread count.
//
// Sweep results are written as a deterministic cpr-stats-v1.3 document
// (counters only, no wall times) -- the committed bench/BENCH_sim.json
// baseline records one cell family per sweep point:
//
//   cpr-bench: bench_sim_predictors --out=bench/BENCH_sim.json
//              bench_sim_predictors --quick --out=/tmp/b.json   (CI smoke)
//              bench_sim_predictors --validate=bench/BENCH_sim.json
//
// Exit codes: 0 success, 1 failure (bad validate target, I/O), 2 usage
// error.
//
//===----------------------------------------------------------------------===//

#include "DriverCommon.h"
#include "pipeline/PipelineRun.h"
#include "pipeline/Reports.h"
#include "support/JSON.h"
#include "support/ThreadPool.h"
#include "workloads/BenchmarkSuite.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace cpr;

namespace {

struct SimBenchConfig {
  std::string Out;
  std::string Validate;
  unsigned MaxWorkloads = 0; ///< 0 = the whole paper suite
  bool Quick = false;
  DriverConfig Driver; ///< --threads / --stats-json / --help
};

OptionTable buildOptions(SimBenchConfig &C) {
  OptionTable T;
  T.addString("--out", "<file>",
              "write the deterministic cpr-stats-v1.3 sweep document "
              "here (the committed baseline is bench/BENCH_sim.json)",
              C.Out);
  T.addString("--validate", "<file>",
              "validate an existing sweep document against the "
              "cpr-stats-v1.3 schema and exit (no sweep run)",
              C.Validate);
  T.addUnsigned("--max-workloads", "<n>",
                "cap the sweep at the first n suite workloads (0 = all)",
                C.MaxWorkloads);
  T.addFlag("--quick", "small sweep for CI smoke runs (4 workloads)",
            C.Quick);
  T.addUnsigned("--threads", "<n>",
                "worker threads for the sweep (0 = all cores)",
                C.Driver.Threads);
  T.addString("--stats-json", "<file>",
              "write per-stage counters and wall times as JSON",
              C.Driver.StatsJSON);
  T.addFlag("--help", "print this help", C.Driver.Help);
  T.addFlag("-h", "print this help", C.Driver.Help);
  return T;
}

/// One cell's counter family in the sweep document. Only deterministic
/// facts are recorded (cycle totals, mispredict/BTB/stall counts, and the
/// ratios derived from them) so the document is a pure function of the
/// sweep shape.
void recordCell(StatsRegistry &Doc, const FrontendCell &Cell) {
  const std::string P = "sim/" + Cell.Workload + "/" + Cell.Machine + "/" +
                        Cell.Predictor + "/" + Cell.Frontend + "/";
  const SimComparison &SC = Cell.Sim;
  Doc.addCount(P + "speedup", SC.speedup());
  Doc.addCount(P + "cycles_baseline", SC.Baseline.TotalCycles);
  Doc.addCount(P + "cycles_treated", SC.Treated.TotalCycles);
  Doc.addCount(P + "mpki_baseline", SC.Baseline.mpki());
  Doc.addCount(P + "mpki_treated", SC.Treated.mpki());
  Doc.addCount(P + "btb_mpki_treated", SC.Treated.btbMpki());
  Doc.addCount(P + "fetch_stalls_treated",
               static_cast<double>(SC.Treated.FetchStallCycles));
}

/// --validate: the committed baseline (and CI artifacts) must be a
/// cpr-stats-v1.3 document whose sim/ cell families are complete and
/// numeric, with the advertised sweep shape.
int validateDocument(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "bench_sim_predictors: cannot open '%s'\n",
                 Path.c_str());
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  JSONParseResult PR = parseJSON(Buf.str());
  if (!PR) {
    std::fprintf(stderr, "bench_sim_predictors: %s: %s\n", Path.c_str(),
                 PR.Error.c_str());
    return 1;
  }
  const JSONValue &Doc = PR.Value;
  const JSONValue *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() ||
      Schema->getString() != "cpr-stats-v1.3") {
    std::fprintf(stderr,
                 "bench_sim_predictors: %s: missing or wrong \"schema\" "
                 "(want cpr-stats-v1.3)\n",
                 Path.c_str());
    return 1;
  }
  const JSONValue *Counters = Doc.find("counters");
  if (!Counters || !Counters->isObject()) {
    std::fprintf(stderr, "bench_sim_predictors: %s: missing \"counters\"\n",
                 Path.c_str());
    return 1;
  }
  for (const auto &M : Counters->members())
    if (!M.second.isNumber()) {
      std::fprintf(stderr,
                   "bench_sim_predictors: %s: counter \"%s\" is not a "
                   "number\n",
                   Path.c_str(), M.first.c_str());
      return 1;
    }
  // Every cell family must be complete: a /speedup row implies its six
  // sibling rows, and the family count must match the advertised shape.
  static const char *const Leaves[] = {
      "cycles_baseline",   "cycles_treated", "mpki_baseline",
      "mpki_treated",      "btb_mpki_treated",
      "fetch_stalls_treated"};
  size_t CellRows = 0;
  for (const auto &M : Counters->members()) {
    const std::string &Key = M.first;
    const std::string Suffix = "/speedup";
    if (Key.compare(0, 4, "sim/") != 0 || Key.size() <= Suffix.size() ||
        Key.compare(Key.size() - Suffix.size(), Suffix.size(), Suffix) != 0)
      continue;
    ++CellRows;
    const std::string Prefix = Key.substr(0, Key.size() - Suffix.size());
    for (const char *Leaf : Leaves)
      if (!Counters->find(Prefix + "/" + Leaf)) {
        std::fprintf(stderr,
                     "bench_sim_predictors: %s: cell \"%s\" misses "
                     "\"%s\"\n",
                     Path.c_str(), Prefix.c_str(), Leaf);
        return 1;
      }
  }
  const JSONValue *Cells = Counters->find("sim/cells");
  if (!Cells || !Cells->isNumber() ||
      Cells->getNumber() != static_cast<double>(CellRows) || CellRows == 0) {
    std::fprintf(stderr,
                 "bench_sim_predictors: %s: sim/cells (%s) does not match "
                 "the %zu cell families found\n",
                 Path.c_str(), Cells ? "present" : "missing", CellRows);
    return 1;
  }
  for (const char *Shape : {"sim/workloads", "sim/machines",
                            "sim/predictors", "sim/frontends"}) {
    const JSONValue *V = Counters->find(Shape);
    if (!V || !V->isNumber() || V->getNumber() <= 0) {
      std::fprintf(stderr,
                   "bench_sim_predictors: %s: missing shape counter "
                   "\"%s\"\n",
                   Path.c_str(), Shape);
      return 1;
    }
  }
  std::printf("bench_sim_predictors: %s: valid cpr-stats-v1.3 sweep "
              "document (%zu cells)\n",
              Path.c_str(), CellRows);
  return 0;
}

int runSweep(const SimBenchConfig &C) {
  StatsRegistry StageStats;
  FrontendSweepOptions SO;
  SO.Threads = C.Driver.Threads;
  SO.MaxWorkloads = C.Quick ? 4 : C.MaxWorkloads;
  SO.Stats = C.Driver.StatsJSON.empty() ? nullptr : &StageStats;

  FrontendSweepResult R = runFrontendSweep(SO);
  std::printf("%s", renderFrontendSweep(R).c_str());
  std::printf("%s", renderFrontendDetail(R).c_str());

  // The deterministic sweep document: counters only, so equal sweeps
  // produce byte-equal files (the determinism tests rely on this).
  StatsRegistry Doc;
  for (const FrontendCell &Cell : R.Cells)
    recordCell(Doc, Cell);
  std::vector<std::string> Machines, Predictors, Frontends;
  for (const FrontendCell &Cell : R.Cells) {
    auto Note = [](std::vector<std::string> &Seen, const std::string &V) {
      for (const std::string &S : Seen)
        if (S == V)
          return;
      Seen.push_back(V);
    };
    Note(Machines, Cell.Machine);
    Note(Predictors, Cell.Predictor);
    Note(Frontends, Cell.Frontend);
  }
  Doc.addCount("sim/cells", static_cast<double>(R.Cells.size()));
  Doc.addCount("sim/workloads", static_cast<double>(R.Workloads.size()));
  Doc.addCount("sim/machines", static_cast<double>(Machines.size()));
  Doc.addCount("sim/predictors", static_cast<double>(Predictors.size()));
  Doc.addCount("sim/frontends", static_cast<double>(Frontends.size()));

  if (!C.Out.empty()) {
    std::ofstream Out(C.Out);
    if (Out)
      Out << Doc.toJSONText(/*IncludeTimes=*/false) << "\n";
    if (!Out) {
      std::fprintf(stderr, "bench_sim_predictors: cannot write '%s'\n",
                   C.Out.c_str());
      return 1;
    }
    std::fprintf(stderr, "bench_sim_predictors: wrote %s (%zu cells)\n",
                 C.Out.c_str(), R.Cells.size());
  }
  maybeWriteStats(C.Driver, StageStats);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  SimBenchConfig C;
  OptionTable Options = buildOptions(C);
  const std::string Usage = "usage: bench_sim_predictors [options]";

  std::string Error;
  if (!Options.parse(argc, argv, Error, /*Positional=*/nullptr)) {
    std::fprintf(stderr, "bench_sim_predictors: %s\n%s", Error.c_str(),
                 Options.help(Usage).c_str());
    return 2;
  }
  if (C.Driver.Help) {
    std::printf("%s", Options.help(Usage).c_str());
    return 0;
  }
  if (!C.Validate.empty())
    return validateDocument(C.Validate);

  return runSweep(C);
}
