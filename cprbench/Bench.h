//===- cprbench/Bench.h - Shared pieces of the repository benchmark -------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's workloads (cprbench/README.md): the
/// run configuration, the metric sink that becomes the final JSON line,
/// the correctness ledger, and small timing / statistics helpers.
///
//===----------------------------------------------------------------------===//

#ifndef CPRBENCH_BENCH_H
#define CPRBENCH_BENCH_H

#include "workloads/Kernels.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cprbench {

/// One benchmark invocation, from the command line.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Smoke mode: the smallest input that still runs every stage and check.
  bool Quick = false;
  /// Directory for the trace file and the cross-run determinism record.
  std::string OutDir = ".bench_build/cprbench-out";
};

/// Metric values in emission order; rendered as the final JSON line.
class Metrics {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  std::string json() const;
  /// Human-readable table (name, value, unit), one metric per line.
  std::string table() const;

private:
  std::vector<std::string> Names, Units;
  std::vector<double> Values;
};

/// Correctness ledger: operations attempted, failures (of an operation or
/// of a run-wide check such as determinism), and the first few failure
/// messages (printed to stderr at the end).
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Messages;

  void fail(const std::string &Msg);
  bool correct() const { return Failed == 0; }
};

/// The end-to-end metrics (the --trace 0 output), the same for every
/// workload. Serve counts one request as one program.
struct EndToEnd {
  double SetupS = 0.0;
  double ProgramsPerS = 0.0;
  double LatencyP50Ms = 0.0, LatencyP99Ms = 0.0;
  double SpeedupGmean = 0.0;
  double CodeSizeRatio = 0.0;
  double DynOpRatio = 0.0;

  /// Irredundance holds on-trace only: one program's off-trace
  /// compensation code may dispatch more operations (099.go does), but
  /// the workload as a whole must not.
  void checkIrredundance(Outcome &Out) const;
  void emit(Metrics &M) const;
};

/// Per-layer metric values by name (the --trace 1 output).
using LayerValues = std::map<std::string, double>;

/// Adds every per-layer metric the benchmark defines to \p M, in a fixed
/// order, taking values from \p V. A metric of a layer the workload does
/// not reach reads 0. Aborts on a name in \p V that is not defined.
void emitLayerMetrics(const LayerValues &V, Metrics &M);

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// CPU time this thread has used, in ms.
double threadCpuMs();

/// Linear-interpolated percentile (\p P in [0, 1]) of \p Values.
double percentile(std::vector<double> Values, double P);
inline double median(const std::vector<double> &Values) {
  return percentile(Values, 0.5);
}
inline double lowerQuartile(const std::vector<double> &Values) {
  return percentile(Values, 0.25);
}
/// The estimator of a batch session's cost, repeated identical work. On a
/// shared host other tenants only ever add time, and the host runs up to
/// 40% slower for seconds at a stretch, in CPU time as in wall time; the
/// least of a run's samples tracks the program's own cost where the median
/// tracks the neighbours.
inline double bestOf(const std::vector<double> &Values) {
  return percentile(Values, 0.0);
}

/// Prints the timed passes' wall times to stderr (a noisy host shows here).
void reportPassWalls(const std::vector<double> &WallsMs);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Least-squares slope of log(Y) against log(X) over positive pairs.
double logLogSlope(const std::vector<double> &X, const std::vector<double> &Y);

/// Deep copy of a runnable program (sessions consume their input).
cpr::KernelProgram cloneProgram(const cpr::KernelProgram &P);

/// Share of the previous pass's time spent sampling the set-up again
/// before each pass.
constexpr double SetupShare = 0.02;

/// CPU times (ms) of repeated set-ups of a workload's inputs. The set-up
/// runs five times at the start and again before every timed pass, so its
/// samples span the whole run like the passes do; setup_s is their median.
class SetupTimer {
public:
  /// At least \p MinReps samples, and more while they have taken under
  /// \p BudgetMs (capped at 100), so a cheap set-up gets many samples.
  template <typename Fn>
  void sample(Fn &&Build, unsigned MinReps, double BudgetMs) {
    double Start = threadCpuMs();
    for (unsigned I = 0;
         I < MinReps || (I < 100 && threadCpuMs() - Start < BudgetMs); ++I) {
      double T0 = threadCpuMs();
      Build();
      Ms.push_back(threadCpuMs() - T0);
    }
  }
  double seconds() const { return median(Ms) / 1000.0; }

private:
  std::vector<double> Ms;
};

/// Cross-run determinism: compares \p Record with the one a previous run of
/// the same binary, workload and seed stored under Cfg.OutDir (storing it
/// when none exists). Returns an empty string or a divergence message.
std::string checkAcrossRuns(const RunConfig &Cfg, const std::string &Record);

/// The batch workloads (suite, ladder, sim) and the serve workload. Each
/// fills \p M (end-to-end metrics untraced, per-layer metrics traced) and
/// \p Out.
void runBatchWorkload(const RunConfig &Cfg, Metrics &M, Outcome &Out);
void runServeWorkload(const RunConfig &Cfg, Metrics &M, Outcome &Out);

} // namespace cprbench

#endif // CPRBENCH_BENCH_H
