//===- cprbench/Session.h - One traced pipeline session ---------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One measurement session over one program through the public
/// PipelineRun stage accessors, forced in one fixed order so a timed and a
/// traced run do the same work:
///
///   baselineProfile, treated, checkEquivalence, treatedProfile,
///   baselineAnalyses + treatedAnalyses, estimateMachine per machine,
///   simulate per machine (when the options simulate),
///
/// followed, outside the timed part, by a print / parse / verify / re-print
/// round trip of the treated IR. Every call sits in its own span
/// (Trace.h). The attribution replay (replayEstimate) later rebuilds
/// RegionPQS, DepGraph and scheduleBlock per block x machine from their
/// public constructors, splitting the estimate stage without touching the
/// compiler.
///
//===----------------------------------------------------------------------===//

#ifndef CPRBENCH_SESSION_H
#define CPRBENCH_SESSION_H

#include "Bench.h"
#include "Trace.h"

#include "pipeline/PipelineRun.h"

#include <memory>
#include <string>
#include <vector>

namespace cprbench {

struct SessionSpec {
  const cpr::KernelProgram *Program = nullptr;
  /// Opts.FailSafe decides what an oracle mismatch does: without it the
  /// session fails; with it the session falls back to the baseline and
  /// the fallback is counted.
  cpr::PipelineOptions Opts;
  /// Injected treated function (skips the transform), e.g. a compile
  /// service response under check. Consumed by runSession.
  std::unique_ptr<cpr::Function> Treated;
  /// Keep the round trip's parsed treated function in the result (for
  /// the attribution replay).
  bool KeepTreated = false;
};

struct SessionResult {
  bool Ok = true;
  std::string Error;
  bool FellBack = false;
  cpr::CPRResult CPR;
  size_t StaticOpsBaseline = 0, StaticOpsTreated = 0;
  uint64_t DynOpsBaseline = 0, DynOpsTreated = 0;
  /// Baseline / treated cycles per machine: estimated, or simulated when
  /// the options simulate.
  std::vector<double> Speedups;
  uint64_t SimBranches = 0, SimMispredictsTreated = 0, SimOpsTreated = 0;
  size_t TreatedIRBytes = 0;
  /// Digest of the treated IR, CPR counters and every cycle count.
  uint64_t Digest = 0;
  /// Thread CPU time of the compiler's work: PipelineRun construction and
  /// the stages, not the input clone or the IR round trip.
  double CpuMs = 0.0;
  /// With SessionSpec::KeepTreated: the treated function, re-parsed.
  std::unique_ptr<cpr::Function> Treated;
};

/// Runs one session; every failure is reported in the result, never
/// fatal. \p Id is the span id shared by the session's spans.
SessionResult runSession(SessionSpec &Spec, uint64_t Id);

/// The estimate stage's per-block work for \p Baseline and \p Treated on
/// every machine of \p Opts, each part under its own span.
void replayEstimate(const cpr::Function &Baseline,
                    const cpr::Function &Treated,
                    const cpr::PipelineOptions &Opts);

/// speedup_gmean (over programs x machines), code_size_ratio and
/// dyn_op_ratio (ratios of totals) of \p Results.
void fillQuality(const std::vector<SessionResult> &Results, EndToEnd &E);

/// Reads the replay's spans (root "replay") into analysis.pqs_ms,
/// analysis.depgraph_ms and sched.list_schedule_ms, and their share of
/// \p L's sched.estimate_ms into sched.replay_coverage.
void fillReplayMetrics(const std::vector<Span> &Spans, LayerValues &L);

} // namespace cprbench

#endif // CPRBENCH_SESSION_H
