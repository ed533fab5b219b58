//===- pipeline/Reports.h - Suite-level report rendering --------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the paper's Table 2 and Table 3 from a set of pipeline results,
/// including the geometric-mean rows over the SPEC-95 subset and over the
/// whole suite. Shared by the benchmark binaries and usable from client
/// code to compare configurations.
///
//===----------------------------------------------------------------------===//

#ifndef PIPELINE_REPORTS_H
#define PIPELINE_REPORTS_H

#include "pipeline/CompilerPipeline.h"
#include "workloads/BenchmarkSuite.h"

#include <string>
#include <vector>

namespace cpr {

/// One suite row: benchmark name + its pipeline result.
struct SuiteRow {
  std::string Name;
  bool InSpec95Mean = false;
  PipelineResult Result;
};

/// Runs the whole paper suite under \p Opts: one staged PipelineRun
/// session per benchmark, executed on a work-queue thread pool when
/// Opts.Threads != 1 (0 = hardware concurrency). Row order, table
/// output, and the counters reported into Opts.Stats are identical at
/// every thread count; only wall times vary.
std::vector<SuiteRow> runSuite(const PipelineOptions &Opts =
                                   PipelineOptions());

/// Renders Table 2 (speedups per machine, Gmean rows). The machine list
/// is taken from the first row's results.
std::string renderTable2(const std::vector<SuiteRow> &Rows);

/// Renders Table 3 (static/dynamic operation-count ratios, Gmean rows).
std::string renderTable3(const std::vector<SuiteRow> &Rows);

/// --- The Table 2-dyn frontend sweep ----------------------------------
///
/// The deliverable of the frontend-fidelity subsystem (docs/SIMULATOR.md):
/// workloads x machines x predictors x frontend configurations, each cell
/// a trace-driven CPR speedup with MPKI, BTB-MPKI, and fetch-stall
/// detail. One prepared session per workload is reused across all of its
/// cells, so the sweep costs one profile/transform per workload no matter
/// how many frontend geometries it covers.

/// One named frontend configuration of the sweep.
struct FrontendCellConfig {
  std::string Name; ///< stable cell label, e.g. "flat" or "fetch4.btb64x4"
  FrontendOptions Frontend;
};

/// The default configurations: "flat" (the legacy flat-penalty model)
/// and "fetch4.btb64x4" (4-wide decoupled fetch with a 64-set 4-way BTB).
std::vector<FrontendCellConfig> defaultFrontendConfigs();

/// Sweep shape and execution options.
struct FrontendSweepOptions {
  std::vector<MachineDesc> Machines = {MachineDesc::medium(),
                                       MachineDesc::wide()};
  std::vector<PredictorKind> Predictors = allPredictorKinds();
  std::vector<FrontendCellConfig> Frontends = defaultFrontendConfigs();
  /// Worker threads (1 = serial, 0 = hardware concurrency). Cell order,
  /// rendered tables, and reported counters are identical at every
  /// setting.
  unsigned Threads = 1;
  /// Cap on paper-suite workloads (front of the suite); 0 = all.
  size_t MaxWorkloads = 0;
  /// When non-null, per-session stage counters land here (merged in
  /// suite order, deterministically).
  StatsRegistry *Stats = nullptr;
};

/// One sweep cell.
struct FrontendCell {
  std::string Workload;
  std::string Machine;
  std::string Predictor;
  std::string Frontend;
  SimComparison Sim;
};

/// The sweep result: cells in workload-major, then machine, predictor,
/// frontend order -- a stable order every renderer and serializer keeps.
struct FrontendSweepResult {
  std::vector<std::string> Workloads;
  std::vector<FrontendCell> Cells;
};

/// Runs the sweep over the paper benchmark suite.
FrontendSweepResult
runFrontendSweep(const FrontendSweepOptions &Opts = FrontendSweepOptions());

/// Renders one Table 2-dyn speedup table per (predictor, frontend) pair.
std::string renderFrontendSweep(const FrontendSweepResult &R);

/// Renders per-workload MPKI / BTB-MPKI / fetch-stall detail for every
/// frontend configuration, on the last machine and the last predictor of
/// the sweep (the most modern pairing).
std::string renderFrontendDetail(const FrontendSweepResult &R);

} // namespace cpr

#endif // PIPELINE_REPORTS_H
