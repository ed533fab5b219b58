//===- cprbench/Trace.h - In-memory span recorder ---------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing: spans recorded around each call the benchmark
/// makes into a compiler layer. A span has a name, start, end, parent and
/// an id shared by all spans of one program or request. Spans stay in
/// memory and are written out once, as Chrome trace-event JSON, when the
/// run ends. With no active Tracer a ScopedSpan does nothing.
///
/// Span names are "<layer>.<what>" (interp.profile, cpr.transform, ...);
/// "pass" and "session" are harness spans that only group layer spans.
///
//===----------------------------------------------------------------------===//

#ifndef CPRBENCH_TRACE_H
#define CPRBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cprbench {

struct Span {
  const char *Name = "";
  uint64_t Id = 0;
  int64_t Parent = -1; ///< index of the parent span, -1 for a root
  double StartMs = 0.0, EndMs = 0.0;
  unsigned Thread = 0;

  double durationMs() const { return EndMs - StartMs; }
};

/// Thread-safe span store.
class Tracer {
public:
  Tracer();

  /// The process-wide tracer ScopedSpan records into (nullptr = off).
  static Tracer *active();
  static void setActive(Tracer *T);

  size_t begin(const char *Name, uint64_t Id, int64_t Parent);
  void end(size_t Idx);

  std::vector<Span> spans() const;

  /// Writes every span as Chrome trace-event JSON; false on I/O error.
  bool writeChromeTrace(const std::string &Path) const;

private:
  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span on the active tracer. \p Id defaults to the enclosing span's.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, int64_t Id = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Index of this span (-1 when tracing is off), for adoptParent().
  int64_t index() const { return Idx; }

private:
  Tracer *T;
  int64_t Idx = -1;
};

/// Makes span \p Parent (recorded on another thread) the parent of the
/// spans this thread opens while the guard lives.
class AdoptParent {
public:
  explicit AdoptParent(int64_t Parent);
  ~AdoptParent();
  AdoptParent(const AdoptParent &) = delete;
  AdoptParent &operator=(const AdoptParent &) = delete;

private:
  bool Pushed = false;
};

/// Self time of every span: its duration minus the part its children cover.
std::vector<double> selfTimesMs(const std::vector<Span> &Spans);

/// Index of the root span each span descends from.
std::vector<size_t> rootsOf(const std::vector<Span> &Spans);

/// True for the harness spans ("pass", "session") that only group
/// layer spans and so are not attributed to a layer.
bool isHarnessSpan(const char *Name);

/// A stable copy of \p Name for span names built at run time.
const char *internName(const std::string &Name);

/// The spans under one root span (one pass), aggregated.
struct PassProfile {
  double WallMs = 0.0;
  /// Self time per span name, harness spans excluded.
  std::map<std::string, double> SelfMs;
  /// Sum of SelfMs: the part of the pass attributed to some layer.
  double AttributedMs = 0.0;

  /// Self time of span \p Name plus every "<Name>.*" span.
  double layerMs(const std::string &Name) const;
};

/// One PassProfile per root span named \p RootName, in recording order.
std::vector<PassProfile> profilePasses(const std::vector<Span> &Spans,
                                       const char *RootName);

/// Median over \p Passes of layerMs(\p Name).
double medianLayerMs(const std::vector<PassProfile> &Passes,
                     const std::string &Name);

} // namespace cprbench

#endif // CPRBENCH_TRACE_H
