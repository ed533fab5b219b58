//===- cprbench/Bench.cpp - Shared pieces of the repository benchmark -----===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <time.h>

using namespace cprbench;
namespace fs = std::filesystem;

void Metrics::add(const std::string &Name, double Value,
                  const std::string &Unit) {
  Names.push_back(Name);
  Values.push_back(std::isfinite(Value) ? Value : 0.0);
  Units.push_back(Unit);
}

std::string Metrics::json() const {
  std::string S = "{";
  for (size_t I = 0; I < Names.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Values[I]);
    S += (I ? ", \"" : "\"") + Names[I] + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Units[I] + "\"}";
  }
  return S + "}";
}

std::string Metrics::table() const {
  std::string S;
  for (size_t I = 0; I < Names.size(); ++I) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "  %-34s %16.6g %s\n", Names[I].c_str(),
                  Values[I], Units[I].c_str());
    S += Buf;
  }
  return S;
}

namespace {

struct LayerMetric {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric, grouped by layer; BENCHMARK.json's per_layer
/// list names the same metrics with the same units.
const LayerMetric LayerTable[] = {
    {"interp.profile_ms", "ms"},
    {"interp.oracle_ms", "ms"},
    {"interp.dyn_ops", "count"},
    {"interp.dyn_ops_per_s", "1/s"},
    {"cpr.transform_ms", "ms"},
    {"cpr.transform_exponent", "ratio"},
    {"cpr.regions", "count"},
    {"cpr.blocks_formed", "count"},
    {"cpr.blocks_transformed", "count"},
    {"cpr.block_yield", "ratio"},
    {"cpr.branches_merged", "count"},
    {"cpr.ops_moved_off_trace", "count"},
    {"cpr.blocks_rolled_back", "count"},
    {"cpr.fallbacks", "count"},
    {"cpr.stop.no-more-branches", "count"},
    {"cpr.stop.suitability", "count"},
    {"cpr.stop.separability", "count"},
    {"cpr.stop.exit-weight", "count"},
    {"cpr.stop.predict-taken", "count"},
    {"cpr.stop.size-cap", "count"},
    {"analysis.function_analyses_ms", "ms"},
    {"analysis.pqs_ms", "ms"},
    {"analysis.depgraph_ms", "ms"},
    {"sched.estimate_ms", "ms"},
    {"sched.estimate_ms.sequential", "ms"},
    {"sched.estimate_ms.narrow", "ms"},
    {"sched.estimate_ms.medium", "ms"},
    {"sched.estimate_ms.wide", "ms"},
    {"sched.estimate_ms.infinite", "ms"},
    {"sched.list_schedule_ms", "ms"},
    {"sched.replay_coverage", "ratio"},
    {"sim.simulate_ms", "ms"},
    {"sim.branches", "count"},
    {"sim.branches_per_s", "1/s"},
    {"sim.mpki_treated", "1/kop"},
    {"ir.parse_ms", "ms"},
    {"ir.verify_ms", "ms"},
    {"ir.serialize_ms", "ms"},
    {"ir.parse_bytes_per_s", "B/s"},
    {"serve.rtt_hit_ms", "ms"},
    {"serve.rtt_miss_ms", "ms"},
    {"serve.compile_ms", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.shed", "count"},
    {"serve.queue_depth_max", "count"},
    {"workloads.build_ms", "ms"},
    {"fuzz.generate_ms", "ms"},
    {"trace.overhead", "ratio"},
    {"trace.unattributed", "ratio"},
};

} // namespace

void EndToEnd::checkIrredundance(Outcome &Out) const {
  if (DynOpRatio > 1.0)
    Out.fail("treated code dispatches more operations than the baseline "
             "(dyn_op_ratio " +
             std::to_string(DynOpRatio) + ")");
}

void EndToEnd::emit(Metrics &M) const {
  M.add("setup_s", SetupS, "s");
  M.add("programs_per_s", ProgramsPerS, "1/s");
  M.add("latency_p50_ms", LatencyP50Ms, "ms");
  M.add("latency_p99_ms", LatencyP99Ms, "ms");
  M.add("peak_rss_mb", peakRssMb(), "MiB");
  M.add("speedup_gmean", SpeedupGmean, "ratio");
  M.add("code_size_ratio", CodeSizeRatio, "ratio");
  M.add("dyn_op_ratio", DynOpRatio, "ratio");
}

void cprbench::emitLayerMetrics(const LayerValues &V, Metrics &M) {
  for (const auto &KV : V) {
    bool Known = false;
    for (const LayerMetric &L : LayerTable)
      Known = Known || KV.first == L.Name;
    if (!Known) {
      std::fprintf(stderr, "cprbench: undefined per-layer metric '%s'\n",
                   KV.first.c_str());
      std::abort();
    }
  }
  for (const LayerMetric &L : LayerTable) {
    auto It = V.find(L.Name);
    M.add(L.Name, It == V.end() ? 0.0 : It->second, L.Unit);
  }
}

void Outcome::fail(const std::string &Msg) {
  ++Failed;
  if (Messages.size() < 20)
    Messages.push_back(Msg);
}

double cprbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = P * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  if (Lo + 1 >= Values.size())
    return Values.back();
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + Frac * (Values[Lo + 1] - Values[Lo]);
}

void cprbench::reportPassWalls(const std::vector<double> &WallsMs) {
  std::string S = "cprbench: timed pass walls (ms):";
  for (double W : WallsMs)
    S += " " + std::to_string(static_cast<long>(W));
  std::fprintf(stderr, "%s\n", S.c_str());
}

double cprbench::threadCpuMs() {
  timespec TS;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) * 1e3 +
         static_cast<double>(TS.tv_nsec) / 1e6;
}

double cprbench::peakRssMb() {
  rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0.0;
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // KiB on Linux
}

double cprbench::logLogSlope(const std::vector<double> &X,
                             const std::vector<double> &Y) {
  double SX = 0, SY = 0, SXX = 0, SXY = 0;
  size_t N = 0;
  for (size_t I = 0; I < X.size() && I < Y.size(); ++I) {
    if (X[I] <= 0.0 || Y[I] <= 0.0)
      continue;
    double LX = std::log(X[I]), LY = std::log(Y[I]);
    SX += LX;
    SY += LY;
    SXX += LX * LX;
    SXY += LX * LY;
    ++N;
  }
  double Den = static_cast<double>(N) * SXX - SX * SX;
  if (N < 2 || Den <= 0.0)
    return 0.0;
  return (static_cast<double>(N) * SXY - SX * SY) / Den;
}

cpr::KernelProgram cprbench::cloneProgram(const cpr::KernelProgram &P) {
  cpr::KernelProgram C;
  C.Func = P.Func->clone();
  C.InitRegs = P.InitRegs;
  C.InitMem = P.InitMem;
  C.Description = P.Description;
  return C;
}

std::string cprbench::checkAcrossRuns(const RunConfig &Cfg,
                                      const std::string &Record) {
  // A record is only comparable with one made by the same binary.
  std::error_code EC;
  fs::path Exe = fs::read_symlink("/proc/self/exe", EC);
  std::ostringstream Id;
  if (!EC)
    Id << fs::file_size(Exe, EC) << ":"
       << fs::last_write_time(Exe, EC).time_since_epoch().count();
  fs::create_directories(Cfg.OutDir, EC);
  fs::path Path = fs::path(Cfg.OutDir) / ("determinism-" + Cfg.Workload +
                                          "-" + std::to_string(Cfg.Seed) +
                                          (Cfg.Quick ? "-quick" : "") +
                                          ".txt");
  std::string Header = "binary " + Id.str() + "\n";
  {
    std::ifstream In(Path);
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::string Prev = Buf.str();
    if (In && Prev.compare(0, Header.size(), Header) == 0) {
      if (Prev.substr(Header.size()) != Record)
        return "outputs differ from an earlier run at the same seed (" +
               Path.string() + ")";
      return "";
    }
  }
  std::ofstream Out(Path);
  Out << Header << Record;
  return "";
}
