//===- bench/bench_table2_speedup.cpp - Paper Table 2 ---------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Regenerates Table 2: "The effectiveness of ICBM for processors with
// branch latency 1" -- the speedup of height-reduced (FRP + ICBM + DCE)
// code over baseline superblock code, per benchmark, on the sequential,
// narrow, medium, wide, and infinite machine models, with geometric-mean
// rows over the SPEC-95 subset and over all benchmarks.
//
// The suite runs as one staged PipelineRun session per benchmark on a
// work-queue thread pool (--threads=<n>); the rendered table is identical
// at every thread count. --stats-json=<file> dumps per-stage counters and
// wall times.
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

void printTable2(const DriverConfig &C, StatsRegistry *Stats) {
  PipelineOptions Opts;
  Opts.Threads = C.Threads;
  Opts.Stats = Stats;
  std::vector<SuiteRow> Rows = runSuite(Opts);
  std::printf("Table 2: speedup of control CPR (ICBM) over baseline "
              "superblock code, branch latency 1\n");
  std::printf("(paper reference Gmean-all: Seq 1.13, Nar 1.05, Med 1.18, "
              "Wid 1.33, Inf 1.41)\n\n%s\n",
              renderTable2(Rows).c_str());
}

} // namespace

int main(int argc, char **argv) {
  DriverConfig C = parseDriverOptions(argc, argv, "bench_table2_speedup");
  StatsRegistry Stats;
  printTable2(C, C.StatsJSON.empty() ? nullptr : &Stats);
  maybeWriteStats(C, Stats);
  return 0;
}
