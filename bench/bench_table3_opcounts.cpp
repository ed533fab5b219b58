//===- bench/bench_table3_opcounts.cpp - Paper Table 3 --------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Regenerates Table 3: the effect of ICBM on static and dynamic operation
// counts, for all operations and for branch operations only, as ratios of
// height-reduced to baseline code. Static counts come from the IR; dynamic
// counts come from the functional interpreter (operations dispatched,
// including nullified predicated operations -- the EPIC notion). The
// paper reports the medium processor; the counts are machine-independent
// in this framework, as they were in the paper (scheduling does not change
// what executes).
//
//===----------------------------------------------------------------------===//

#include "DriverCommon.h"
#include "pipeline/CompilerPipeline.h"
#include "support/Statistics.h"
#include "support/TableFormat.h"
#include "pipeline/Reports.h"
#include "workloads/BenchmarkSuite.h"

#include <cstdio>

using namespace cpr;

namespace {

void printTable3(const DriverConfig &C, StatsRegistry *Stats) {
  PipelineOptions Opts;
  Opts.Threads = C.Threads;
  Opts.Stats = Stats;
  std::vector<SuiteRow> Rows = runSuite(Opts);
  std::printf("Table 3: effect of ICBM on static and dynamic operation "
              "counts (ratios, height-reduced / baseline)\n");
  std::printf("(paper reference Gmean-all: S tot 1.08, S br 1.03, "
              "D tot 0.93, D br 0.42)\n\n%s\n",
              renderTable3(Rows).c_str());
}

} // namespace

int main(int argc, char **argv) {
  DriverConfig C = parseDriverOptions(argc, argv, "bench_table3_opcounts");
  StatsRegistry Stats;
  printTable3(C, C.StatsJSON.empty() ? nullptr : &Stats);
  maybeWriteStats(C, Stats);
  return 0;
}
