//===- cprbench/Batch.cpp - The suite, ladder and sim workloads -----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
//
// A batch workload runs one session (Session.h) per program, single-
// threaded, in a seeded order that stays fixed for the whole run. A pass
// is one session of every program. After set-up and a warm-up, timed
// passes repeat until the run's time is used (at least two, so pass-to-
// pass determinism is checked). With --trace 1 untraced and traced passes
// alternate, and the attribution replay then splits the estimate stage.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Session.h"
#include "Trace.h"

#include "fuzz/Generator.h"
#include "pipeline/Reports.h"
#include "support/Hash.h"
#include "support/RNG.h"
#include "support/Statistics.h"
#include "workloads/BenchmarkSuite.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

using namespace cpr;
using namespace cprbench;

namespace {

struct Program {
  std::string Name;
  KernelProgram P;
  unsigned Rung = 0; ///< ladder size index (0 elsewhere)
  size_t Ops = 0;
};

/// One size of the ladder: generator shape and the generator seeds drawn
/// at it. Seeds 1000 and 1008 at 120/12 are known miscompiles that the
/// fail-safe path catches; they stay in so a fix shows as fewer fallbacks.
struct Rung {
  const char *Name;
  unsigned MaxBlocks, MaxItemsPerRegion;
  std::vector<uint64_t> Seeds;
};

const std::vector<Rung> &ladderRungs() {
  static const std::vector<Rung> Rungs = {
      {"80/8", 80, 8, {1000, 1002, 1003}},
      {"120/12", 120, 12, {1000, 1008, 1001}},
  };
  return Rungs;
}

std::vector<Program> buildPrograms(const RunConfig &Cfg) {
  std::vector<Program> Out;
  if (Cfg.Workload == "ladder") {
    for (unsigned RI = 0; RI < ladderRungs().size(); ++RI) {
      const Rung &R = ladderRungs()[RI];
      GeneratorConfig GC;
      GC.MaxBlocks = R.MaxBlocks;
      GC.MaxItemsPerRegion = R.MaxItemsPerRegion;
      GC.SyntheticFrac = 0.0;
      for (size_t SI = 0; SI < (Cfg.Quick ? 1 : R.Seeds.size()); ++SI) {
        Program P;
        P.Name = std::string(R.Name) + "#" + std::to_string(R.Seeds[SI]);
        P.P = generateProgram(R.Seeds[SI], GC);
        P.Rung = RI;
        Out.push_back(std::move(P));
      }
    }
  } else {
    std::vector<BenchmarkSpec> Suite = paperBenchmarkSuite();
    if (Cfg.Quick)
      Suite.resize(4);
    for (const BenchmarkSpec &S : Suite) {
      Program P;
      P.Name = S.Name;
      P.P = S.Build();
      Out.push_back(std::move(P));
    }
  }
  for (Program &P : Out)
    P.Ops = P.P.Func->totalOps();
  return Out;
}

PipelineOptions sessionOptions(const RunConfig &Cfg) {
  PipelineOptions PO;
  PO.Threads = 1;
  if (Cfg.Workload == "ladder")
    PO.FailSafe = true;
  if (Cfg.Workload == "sim") {
    PO.Simulate = true;
    PO.Predictors = {PredictorKind::TageScL};
    for (const FrontendCellConfig &FC : defaultFrontendConfigs())
      if (FC.Name == "fetch4.btb64x4")
        PO.Frontend = FC.Frontend;
  }
  return PO;
}

struct Pass {
  double WallMs = 0.0;
  bool Traced = false;
  /// Indexed by program (not by run order).
  std::vector<SessionResult> Results;
};

class BatchRunner {
public:
  BatchRunner(const RunConfig &Cfg, Outcome &Out)
      : Cfg(Cfg), Out(Out), Opts(sessionOptions(Cfg)) {}

  /// Builds (or generates) the programs, replacing the previous ones;
  /// deterministic, so every rebuild yields the same inputs.
  void setup(unsigned MinReps, double BudgetMs) {
    Setup.sample([&] { Programs = buildPrograms(Cfg); }, MinReps, BudgetMs);
  }

  void start() {
    setup(5, 0.0);
    Order.resize(Programs.size());
    std::iota(Order.begin(), Order.end(), 0);
    RNG R(Cfg.Seed);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  }

  /// One session of every program in the run order.
  Pass runPass(bool KeepTreated) {
    ScopedSpan Root("pass", 0);
    Pass P;
    P.Results.resize(Programs.size());
    Clock::time_point T0 = Clock::now();
    for (size_t I : Order)
      P.Results[I] = runOne(I, KeepTreated);
    P.WallMs = msSince(T0);
    return P;
  }

  SessionResult runOne(size_t I, bool KeepTreated) {
    SessionSpec Spec;
    Spec.Program = &Programs[I].P;
    Spec.Opts = Opts;
    Spec.KeepTreated = KeepTreated;
    SessionResult R = runSession(Spec, I);
    ++Out.Attempted;
    if (!R.Ok)
      Out.fail(Programs[I].Name + ": " + R.Error);
    record(I, R);
    return R;
  }

  /// Pass-to-pass determinism: every session of a program must produce
  /// the digest its first session did.
  void record(size_t I, const SessionResult &R) {
    if (FirstDigest.empty())
      FirstDigest.assign(Programs.size(), 0);
    if (!R.Ok)
      return;
    if (FirstDigest[I] == 0)
      FirstDigest[I] = R.Digest;
    else if (FirstDigest[I] != R.Digest)
      Out.fail(Programs[I].Name +
               ": outputs differ between passes of one run");
  }

  /// Sessions in run order until half a second has passed (at least one).
  void warmUp() {
    Clock::time_point T0 = Clock::now();
    for (size_t K = 0; K < Order.size() && (K == 0 || msSince(T0) < 500.0);
         ++K)
      runOne(Order[K], false);
  }

  /// Set-up and pass, repeated until \p UntilMs of run time has passed
  /// (stopping early when the next pass would overrun by more than half),
  /// at least twice. With a tracer every second pass records into it and
  /// keeps its treated functions for the attribution replay; alternating
  /// keeps the host's slow spells out of the tracing overhead.
  std::vector<Pass> passesUntil(Clock::time_point Start, double UntilMs,
                                Tracer *T) {
    std::vector<Pass> Passes;
    while (Passes.size() < 2 ||
           msSince(Start) + 0.5 * Passes.back().WallMs < UntilMs) {
      bool Traced = T && Passes.size() % 2 == 1;
      setup(1, Passes.empty() ? 0.0 : SetupShare * Passes.back().WallMs);
      Tracer::setActive(Traced ? T : nullptr);
      Passes.push_back(runPass(Traced));
      Tracer::setActive(nullptr);
      Passes.back().Traced = Traced;
    }
    return Passes;
  }

  /// The estimate stage of every program, split per block (Session.h).
  void replay(const Pass &P) {
    ScopedSpan Root("replay", 0);
    for (size_t I = 0; I < Programs.size(); ++I)
      if (P.Results[I].Treated) {
        ScopedSpan S("session", static_cast<int64_t>(I));
        replayEstimate(*Programs[I].P.Func, *P.Results[I].Treated, Opts);
      }
  }

  std::string determinismRecord() const {
    std::string S;
    for (size_t I = 0; I < Programs.size(); ++I) {
      Hasher H;
      H.u64(FirstDigest[I]);
      S += Programs[I].Name + " " + H.hex() + "\n";
    }
    return S;
  }

  const RunConfig &Cfg;
  Outcome &Out;
  PipelineOptions Opts;
  SetupTimer Setup;
  std::vector<Program> Programs;
  std::vector<size_t> Order;
  std::vector<uint64_t> FirstDigest;
};

/// A program's latency is the least CPU time of its sessions over the
/// timed passes (Bench.h, bestOf); throughput is the program count over the
/// sum of those latencies.
void fillEndToEnd(const std::vector<Pass> &Timed, EndToEnd &E) {
  std::vector<double> Latencies;
  double SumMs = 0;
  for (size_t I = 0; I < Timed.front().Results.size(); ++I) {
    std::vector<double> Cpu;
    for (const Pass &P : Timed)
      Cpu.push_back(P.Results[I].CpuMs);
    Latencies.push_back(bestOf(Cpu));
    SumMs += Latencies.back();
  }
  E.ProgramsPerS = 1000.0 * static_cast<double>(Latencies.size()) / SumMs;
  E.LatencyP50Ms = percentile(Latencies, 0.50);
  E.LatencyP99Ms = percentile(Latencies, 0.99);
  fillQuality(Timed.front().Results, E);
}

/// Counters of one pass (every pass has the same ones); returns the bytes
/// of treated IR the pass parsed.
double fillCounts(const Pass &P, LayerValues &L) {
  CPRResult Sum;
  double DynOps = 0, Fallbacks = 0, SimBranches = 0, SimMiss = 0,
         SimOps = 0, Bytes = 0;
  for (const SessionResult &R : P.Results) {
    const CPRResult &C = R.CPR;
    Sum.RegionsProcessed += C.RegionsProcessed;
    Sum.CPRBlocksFormed += C.CPRBlocksFormed;
    Sum.CPRBlocksTransformed += C.CPRBlocksTransformed;
    Sum.BranchesCovered += C.BranchesCovered;
    Sum.OpsMovedOffTrace += C.OpsMovedOffTrace;
    Sum.BlocksRolledBack += C.BlocksRolledBack;
    for (unsigned K = 0; K < 6; ++K)
      Sum.StopReasons[K] += C.StopReasons[K];
    DynOps += static_cast<double>(R.DynOpsBaseline + R.DynOpsTreated);
    Fallbacks += R.FellBack ? 1 : 0;
    SimBranches += static_cast<double>(R.SimBranches);
    SimMiss += static_cast<double>(R.SimMispredictsTreated);
    SimOps += static_cast<double>(R.SimOpsTreated);
    Bytes += static_cast<double>(R.TreatedIRBytes);
  }
  L["interp.dyn_ops"] = DynOps;
  L["cpr.regions"] = Sum.RegionsProcessed;
  L["cpr.blocks_formed"] = Sum.CPRBlocksFormed;
  L["cpr.blocks_transformed"] = Sum.CPRBlocksTransformed;
  L["cpr.block_yield"] =
      Sum.CPRBlocksFormed
          ? static_cast<double>(Sum.CPRBlocksTransformed) / Sum.CPRBlocksFormed
          : 0.0;
  L["cpr.branches_merged"] = Sum.BranchesCovered;
  L["cpr.ops_moved_off_trace"] = Sum.OpsMovedOffTrace;
  L["cpr.blocks_rolled_back"] = Sum.BlocksRolledBack;
  L["cpr.fallbacks"] = Fallbacks;
  for (unsigned K = 0; K < 6; ++K)
    L[std::string("cpr.stop.") +
      matchStopReasonName(static_cast<MatchStopReason>(K))] =
        Sum.StopReasons[K];
  L["sim.branches"] = SimBranches;
  L["sim.mpki_treated"] = SimOps > 0 ? 1000.0 * SimMiss / SimOps : 0.0;
  return Bytes;
}

/// Per-layer times from the traced passes, and the ladder's scaling rows.
void fillLayerTimes(const BatchRunner &B, const std::vector<Span> &Spans,
                    double UntracedPassMs, double ParseBytes,
                    LayerValues &L) {
  std::vector<PassProfile> Passes = profilePasses(Spans, "pass");
  if (Passes.empty())
    return;
  for (const char *Name :
       {"interp.profile", "interp.oracle", "cpr.transform",
        "analysis.function_analyses", "sched.estimate", "sim.simulate",
        "ir.parse", "ir.verify", "ir.serialize"})
    L[std::string(Name) + "_ms"] = medianLayerMs(Passes, Name);
  for (const MachineDesc &MD : B.Opts.Machines)
    L["sched.estimate_ms." + MD.getName()] =
        medianLayerMs(Passes, "sched.estimate." + MD.getName());
  double ProfileMs = L["interp.profile_ms"];
  L["interp.dyn_ops_per_s"] =
      ProfileMs > 0 ? L["interp.dyn_ops"] / (ProfileMs / 1e3) : 0.0;
  double SimMs = L["sim.simulate_ms"];
  L["sim.branches_per_s"] = SimMs > 0 ? L["sim.branches"] / (SimMs / 1e3) : 0;
  double ParseMs = L["ir.parse_ms"];
  L["ir.parse_bytes_per_s"] = ParseMs > 0 ? ParseBytes / (ParseMs / 1e3) : 0.0;

  std::vector<double> Walls, Unattributed;
  for (const PassProfile &P : Passes) {
    Walls.push_back(P.WallMs);
    Unattributed.push_back(1.0 - P.AttributedMs / P.WallMs);
  }
  L["trace.overhead"] = lowerQuartile(Walls) / UntracedPassMs - 1.0;
  L["trace.unattributed"] = median(Unattributed);

  fillReplayMetrics(Spans, L);

  // Per-program stage times (median over traced passes): the transform
  // scaling exponent and the ladder's per-size rows.
  std::vector<size_t> Roots = rootsOf(Spans);
  size_t N = B.Programs.size();
  const char *Stages[] = {"interp.profile", "cpr.transform", "interp.oracle",
                          "analysis.function_analyses", "sched.estimate"};
  const size_t NumStages = std::size(Stages);
  // [program][stage] -> one total per traced pass.
  std::vector<std::vector<std::vector<double>>> PerProg(
      N, std::vector<std::vector<double>>(NumStages));
  std::map<size_t, size_t> PassOf;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    const Span &Root = Spans[Roots[I]];
    if (std::string(Root.Name) != "pass" || S.Id >= N)
      continue;
    if (S.Parent < 0) {
      size_t Slot = PassOf.size();
      PassOf[I] = Slot;
      continue;
    }
    std::string Name = S.Name;
    for (size_t K = 0; K < NumStages; ++K) {
      const std::string Stage = Stages[K];
      if (Name != Stage && Name.compare(0, Stage.size() + 1, Stage + ".") != 0)
        continue;
      std::vector<double> &V = PerProg[S.Id][K];
      size_t Slot = PassOf[Roots[I]];
      if (V.size() <= Slot)
        V.resize(Slot + 1, 0.0);
      V[Slot] += S.durationMs();
    }
  }
  std::vector<double> Ops, Transform;
  for (size_t I = 0; I < N; ++I) {
    Ops.push_back(static_cast<double>(B.Programs[I].Ops));
    Transform.push_back(median(PerProg[I][1]));
  }
  L["cpr.transform_exponent"] = logLogSlope(Ops, Transform);

  if (B.Cfg.Workload != "ladder")
    return;
  std::fprintf(stderr,
               "ladder rows (per program, median over traced passes; ms):\n"
               "  %-7s %5s %8s %9s %10s %8s %10s %9s\n",
               "size", "progs", "ops", "profile", "transform", "oracle",
               "analyses", "estimate");
  for (unsigned RI = 0; RI < ladderRungs().size(); ++RI) {
    double Count = 0, SumOps = 0, Sums[NumStages] = {};
    for (size_t I = 0; I < N; ++I) {
      if (B.Programs[I].Rung != RI)
        continue;
      ++Count;
      SumOps += static_cast<double>(B.Programs[I].Ops);
      for (size_t K = 0; K < NumStages; ++K)
        Sums[K] += median(PerProg[I][K]);
    }
    if (Count == 0)
      continue;
    std::fprintf(stderr, "  %-7s %5.0f %8.0f %9.2f %10.2f %8.2f %10.2f %9.2f\n",
                 ladderRungs()[RI].Name, Count, SumOps / Count,
                 Sums[0] / Count, Sums[1] / Count, Sums[2] / Count,
                 Sums[3] / Count, Sums[4] / Count);
  }
  std::fprintf(stderr, "  transform time ~ ops^%.2f\n",
               L["cpr.transform_exponent"]);
}

} // namespace

void cprbench::runBatchWorkload(const RunConfig &Cfg, Metrics &M,
                                Outcome &Out) {
  BatchRunner B(Cfg, Out);
  LayerValues Layers;
  EndToEnd E;
  B.start();
  B.warmUp();

  Tracer T;
  std::vector<Pass> All = B.passesUntil(Clock::now(), Cfg.Seconds * 1e3,
                                        Cfg.Trace ? &T : nullptr);
  std::vector<Pass> Timed, Traced;
  std::vector<double> Walls;
  for (Pass &P : All) {
    if (!P.Traced)
      Walls.push_back(P.WallMs);
    (P.Traced ? Traced : Timed).push_back(std::move(P));
  }
  fillEndToEnd(Timed, E);
  E.checkIrredundance(Out);
  reportPassWalls(Walls);

  if (Cfg.Trace) {
    Tracer::setActive(&T);
    B.replay(Traced.back());
    Tracer::setActive(nullptr);
    double ParseBytes = fillCounts(Traced.front(), Layers);
    fillLayerTimes(B, T.spans(), lowerQuartile(Walls), ParseBytes, Layers);
    Layers[Cfg.Workload == "ladder" ? "fuzz.generate_ms"
                                    : "workloads.build_ms"] =
        B.Setup.seconds() * 1e3;
    std::string Path = Cfg.OutDir + "/trace-" + Cfg.Workload + "-" +
                       std::to_string(Cfg.Seed) + ".json";
    if (T.writeChromeTrace(Path))
      std::fprintf(stderr, "cprbench: wrote %s\n", Path.c_str());
  }

  if (std::string Err = checkAcrossRuns(Cfg, B.determinismRecord());
      !Err.empty())
    Out.fail(Err);
  E.SetupS = B.Setup.seconds();
  if (Cfg.Trace)
    emitLayerMetrics(Layers, M);
  else
    E.emit(M);
}
