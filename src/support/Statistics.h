//===- support/Statistics.h - Simple numeric helpers ------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Numeric aggregation helpers used when reducing per-benchmark results to
/// the geometric-mean rows of the paper's tables, plus the pass-level
/// observability layer: a StatsRegistry that every pipeline stage reports
/// counters and wall times into, and the RAII PassTimer that feeds it.
///
/// Thread-safety contract: StatsRegistry is internally mutex-guarded --
/// concurrent stages may report into one shared registry. Determinism:
/// counter keys and values are pure functions of the work performed, so
/// two runs of the same workload produce byte-identical counter
/// sections regardless of thread count; recorded *times* are wall-clock
/// and inherently nondeterministic, which is why toJSON() can exclude
/// them (the determinism tests compare documents without times).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_STATISTICS_H
#define SUPPORT_STATISTICS_H

#include <cassert>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cpr {

/// Geometric mean of \p Values. All values must be positive. Returns 0 for
/// an empty input.
inline double geometricMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values) {
    assert(V > 0.0 && "geometric mean requires positive values");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

/// Arithmetic mean of \p Values. Returns 0 for an empty input.
inline double arithmeticMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

class JSONValue;

/// A sink for pass-level observability data. Stages report named counters
/// (deterministic facts: operation counts, branches merged, mispredicts,
/// estimated cycles) and named wall times; keys are hierarchical
/// slash-separated paths ("008.espresso/estimate/wide/cycles_treated").
///
/// All member functions are safe to call concurrently; iteration-order
/// determinism comes from the sorted key maps, so the emitted document
/// does not depend on the order in which threads reported.
class StatsRegistry {
public:
  /// Adds \p Delta to counter \p Key (creating it at 0).
  void addCount(const std::string &Key, double Delta = 1.0);

  /// Adds \p Ms to the accumulated wall time of \p Key.
  void recordTimeMs(const std::string &Key, double Ms);

  /// Current value of counter \p Key (0 when absent).
  double count(const std::string &Key) const;

  /// Accumulated wall time of \p Key in milliseconds (0 when absent).
  double timeMs(const std::string &Key) const;

  /// Snapshots of the counter / time maps, sorted by key.
  std::vector<std::pair<std::string, double>> counters() const;
  std::vector<std::pair<std::string, double>> timesMs() const;

  /// Folds \p Other into this registry, prepending \p Prefix to every key.
  /// Merging per-task registries in a fixed order yields a deterministic
  /// result even when the tasks themselves ran concurrently.
  void mergeFrom(const StatsRegistry &Other, const std::string &Prefix = "");

  /// Builds the machine-readable stats document:
  ///   { "schema": "cpr-stats-v1.3",
  ///     "counters": { <key>: <number>, ... },   // sorted, deterministic
  ///     "times_ms": { <key>: <number>, ... } }  // sorted, wall-clock
  /// "times_ms" is omitted when \p IncludeTimes is false, making the
  /// document a deterministic function of the work performed.
  JSONValue toJSON(bool IncludeTimes = true) const;

  /// writeJSON(toJSON(IncludeTimes)).
  std::string toJSONText(bool IncludeTimes = true) const;

  /// Drops all data.
  void clear();

private:
  mutable std::mutex Mu;
  std::map<std::string, double> Counts;
  std::map<std::string, double> Times;
};

/// Writes \p Registry's document to \p Path; returns false (and leaves a
/// message in \p Error when non-null) on I/O failure.
bool writeStatsJSONFile(const StatsRegistry &Registry,
                        const std::string &Path,
                        std::string *Error = nullptr);

/// RAII wall-clock timer: adds the elapsed time to \p Key in \p Registry
/// on destruction (or at stop()), so timers of one key sum. A null
/// registry disables it: no clock is read.
class PassTimer {
public:
  PassTimer(StatsRegistry *Registry, std::string Key)
      : Registry(Registry), Key(std::move(Key)) {
    if (Registry)
      Start = std::chrono::steady_clock::now();
  }
  PassTimer(const PassTimer &) = delete;
  PassTimer &operator=(const PassTimer &) = delete;
  ~PassTimer() { stop(); }

  /// Stops the timer and reports; idempotent. Returns elapsed ms (0 with
  /// a null registry).
  double stop() {
    if (Registry) {
      LastMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
      Registry->recordTimeMs(Key, LastMs);
      Registry = nullptr;
    }
    return LastMs;
  }

private:
  StatsRegistry *Registry;
  std::string Key;
  std::chrono::steady_clock::time_point Start;
  double LastMs = 0.0;
};

} // namespace cpr

#endif // SUPPORT_STATISTICS_H
