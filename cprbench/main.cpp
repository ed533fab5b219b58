//===- cprbench/main.cpp - The repository benchmark -----------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Runs one workload for a given time and prints, as the last line of
// standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), each as {"value": V, "unit": U}. A readable table, the
// ladder's per-size rows and any failure messages go to standard error.
// See cprbench/README.md; cprbench/run.py builds and runs this binary.
//
//   cprbench --workload suite|ladder|sim|serve --seed N --seconds S
//            --trace 0|1 [--quick] [--out-dir DIR]
//
// Exit codes: 0 correct, 1 a correctness check failed, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace cprbench;

namespace {

int usage(const std::string &Msg) {
  std::fprintf(stderr,
               "cprbench: %s\nusage: cprbench --workload suite|ladder|sim|"
               "serve --seed N --seconds S --trace 0|1 [--quick] "
               "[--out-dir DIR]\n",
               Msg.c_str());
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I], Val;
    if (Arg == "--quick") {
      Cfg.Quick = true;
      continue;
    }
    if (size_t Eq = Arg.find('='); Eq != std::string::npos) {
      Val = Arg.substr(Eq + 1);
      Arg.resize(Eq);
    } else if (I + 1 < argc) {
      Val = argv[++I];
    } else {
      return usage("missing value for " + Arg);
    }
    char *End = nullptr;
    if (Arg == "--workload")
      Cfg.Workload = Val;
    else if (Arg == "--seed")
      Cfg.Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Arg == "--seconds")
      Cfg.Seconds = std::strtod(Val.c_str(), &End);
    else if (Arg == "--trace")
      Cfg.Trace = std::strtoul(Val.c_str(), &End, 10) != 0;
    else if (Arg == "--out-dir")
      Cfg.OutDir = Val;
    else
      return usage("unknown option " + Arg);
    if (End && (*End != '\0' || Val.empty()))
      return usage("bad value '" + Val + "' for " + Arg);
  }
  if (Cfg.Workload != "suite" && Cfg.Workload != "ladder" &&
      Cfg.Workload != "sim" && Cfg.Workload != "serve")
    return usage("unknown workload '" + Cfg.Workload + "'");
  if (!(Cfg.Seconds > 0.0))
    return usage("--seconds must be positive");

  std::signal(SIGPIPE, SIG_IGN); // a vanished peer must not kill the run
  std::error_code EC;
  std::filesystem::create_directories(Cfg.OutDir, EC);

  Metrics M;
  Outcome Out;
  if (Cfg.Workload == "serve")
    runServeWorkload(Cfg, M, Out);
  else
    runBatchWorkload(Cfg, M, Out);

  std::fprintf(stderr, "cprbench: %s seed %llu (%s):\n%s",
               Cfg.Workload.c_str(),
               static_cast<unsigned long long>(Cfg.Seed),
               Cfg.Trace ? "per-layer, traced" : "end-to-end, untraced",
               M.table().c_str());
  for (const std::string &Msg : Out.Messages)
    std::fprintf(stderr, "cprbench: FAILED: %s\n", Msg.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Out.correct() ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed),
              M.json().c_str());
  return Out.correct() ? 0 : 1;
}
