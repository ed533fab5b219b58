//===- cprbench/Serve.cpp - The serve workload ----------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
//
// An in-process serve::Server on a Unix socket with W workers, driven by a
// closed loop of W client connections from the same process (each client
// sends its next request only after the previous reply, like `cprc
// --server=` callers), W = nproc/2 capped to [1, 8]. A pass starts a
// fresh daemon (cold region cache) and plays the seeded request stream:
// every program of the pool once plus as many repeats drawn with Zipf
// popularity, shuffled. The pool is fixed (40 default-config
// generator programs and the six Unix kernels); the seed draws the order.
//
// After the timed passes every unique response is parsed, verified and
// oracle-checked against its request program in a session (Session.h)
// that also estimates its cycles on the five paper machines.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Session.h"
#include "Trace.h"

#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Hash.h"
#include "support/RNG.h"
#include "support/Statistics.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <cstdio>
#include <thread>
#include <unistd.h>

using namespace cpr;
using namespace cpr::serve;
using namespace cprbench;

namespace {

constexpr unsigned PoolGenerated = 40;
/// Repeats per pool program in a pass: half of the requests repeat an
/// earlier one.
constexpr size_t RepeatsPerProgram = 1;

struct Request {
  size_t Unique = 0;
  CompileRequest Req;
};

struct Reply {
  double RttMs = 0.0;
  bool Ok = false;
  bool Miss = false;
  std::string Status;
  uint64_t Canonical = 0; ///< hash of the frame without id and cache counts
  std::string IR;
};

struct ServePass {
  double WallMs = 0.0;
  bool Traced = false;
  std::vector<Reply> Replies; ///< indexed like the stream
  RegionCacheStats Cache;
  uint64_t Shed = 0;
  size_t QueueDepthMax = 0;
};

unsigned workerCount() {
  unsigned HW = std::thread::hardware_concurrency();
  return std::clamp(HW / 2, 1u, 8u);
}

class ServeRunner {
public:
  ServeRunner(const RunConfig &Cfg, Outcome &Out)
      : Cfg(Cfg), Out(Out), Workers(workerCount()) {}

  void setup(unsigned MinReps, double BudgetMs) {
    Setup.sample([&] { build(); }, MinReps, BudgetMs);
  }

  /// Builds the program pool and the seeded request stream, replacing the
  /// previous ones; deterministic, so every rebuild yields the same.
  void build() {
    IRs.clear();
    Stream.clear();
    double T0 = threadCpuMs();
    const size_t Len = 1024;
    IRs.push_back(serializeFuzzProgram(buildStrcpyKernel(4, Len, 1)));
    IRs.push_back(serializeFuzzProgram(buildCmpKernel(4, Len, Len - 8, 2)));
    IRs.push_back(serializeFuzzProgram(buildGrepKernel(4, Len, 0.02, 3)));
    IRs.push_back(serializeFuzzProgram(buildWcKernel(4, Len, 4)));
    IRs.push_back(serializeFuzzProgram(buildLexKernel(4, Len, 5)));
    IRs.push_back(serializeFuzzProgram(buildCccpKernel(4, Len, 6)));
    BuildMs.push_back(threadCpuMs() - T0);
    T0 = threadCpuMs();
    GeneratorConfig GC;
    for (unsigned I = 1; I <= (Cfg.Quick ? 4 : PoolGenerated); ++I)
      IRs.push_back(serializeFuzzProgram(generateProgram(I, GC)));
    GenMs.push_back(threadCpuMs() - T0);
    buildStream();
  }

  /// Popularity is Zipf over a fixed ranking of the pool, with the repeat
  /// counts rounded deterministically, so every seed requests the same
  /// multiset of programs; the seed draws the order, and with it which
  /// request of a program is the cold one and which requests overlap.
  void buildStream() {
    size_t U = IRs.size();
    std::vector<size_t> Rank(U);
    std::iota(Rank.begin(), Rank.end(), 0);
    RNG Fixed(0x5eed);
    for (size_t I = U; I > 1; --I)
      std::swap(Rank[I - 1], Rank[Fixed.nextBelow(I)]);
    double Total = 0;
    for (size_t K = 0; K < U; ++K)
      Total += 1.0 / static_cast<double>(K + 1);
    std::vector<size_t> Picks(Rank.begin(), Rank.end());
    double Owed = 0; // carried rounding, so the counts sum exactly
    for (size_t K = 0; K < U; ++K) {
      Owed += static_cast<double>(RepeatsPerProgram * U) /
              (Total * static_cast<double>(K + 1));
      for (; Owed >= 0.5; Owed -= 1.0)
        Picks.push_back(Rank[K]);
    }
    RNG R(Cfg.Seed);
    for (size_t I = Picks.size(); I > 1; --I)
      std::swap(Picks[I - 1], Picks[R.nextBelow(I)]);
    for (size_t I = 0; I < Picks.size(); ++I) {
      Request Q;
      Q.Unique = Picks[I];
      Q.Req.Id = "q" + std::to_string(I);
      Q.Req.IR = IRs[Picks[I]];
      Stream.push_back(std::move(Q));
    }
  }

  /// One cold daemon playing the whole stream from the client pool.
  ServePass runPass() {
    ScopedSpan Root("pass", 0);
    ServerOptions SO;
    SO.SocketPath = Cfg.OutDir + "/serve-" + std::to_string(::getpid()) +
                    ".sock";
    SO.Threads = Workers;
    Server Daemon(SO);
    int RunRC = 0;
    std::thread Runner([&] { RunRC = Daemon.runSocket(); });
    for (int I = 0; I < 5000 && ::access(SO.SocketPath.c_str(), F_OK) != 0;
         ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));

    ServePass P;
    P.Replies.resize(Stream.size());
    std::atomic<size_t> Next{0};
    std::atomic<size_t> DepthMax{0};
    std::vector<std::string> Errors(Workers);
    int64_t RootIdx = Root.index();
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C < Workers; ++C)
      Clients.emplace_back([&, C] {
        AdoptParent Adopt(RootIdx);
        Expected<Client> Conn = Client::connect(SO.SocketPath);
        if (!Conn) {
          Errors[C] = "connect failed: " + Conn.takeDiagnostic().Message;
          return;
        }
        for (size_t I; (I = Next.fetch_add(1)) < Stream.size();) {
          Reply &Rep = P.Replies[I];
          Clock::time_point R0 = Clock::now();
          Expected<CompileResponse> Res = [&] {
            ScopedSpan S("serve.rtt", static_cast<int64_t>(I));
            return Conn->roundTrip(Stream[I].Req);
          }();
          Rep.RttMs = msSince(R0);
          size_t Depth = Daemon.stats().QueueDepth;
          for (size_t Cur = DepthMax.load(); Depth > Cur &&
                                             !DepthMax.compare_exchange_weak(
                                                 Cur, Depth);)
            ;
          if (!Res) {
            Rep.Status = "transport error: " + Res.takeDiagnostic().Message;
            continue;
          }
          CompileResponse &R = *Res;
          Rep.Status = R.Status;
          Rep.Ok = R.ok();
          Rep.Miss = R.CacheMisses > 0;
          Rep.IR = R.IR;
          R.Id.clear();
          R.CacheHits = R.CacheMisses = 0;
          Rep.Canonical = hashString(encodeResponse(R));
        }
      });
    for (std::thread &T : Clients)
      T.join();
    P.WallMs = msSince(T0);
    P.Cache = Daemon.service().cacheStats();
    P.Shed = Daemon.stats().Shed;
    P.QueueDepthMax = DepthMax.load();

    // Stop: the flag, then one connection to wake the accept loop.
    Daemon.requestStop();
    { Expected<Client> Wake = Client::connect(SO.SocketPath); }
    Runner.join();
    for (const std::string &E : Errors)
      if (!E.empty())
        Out.fail(E);
    if (RunRC != 0)
      Out.fail("daemon exited with code " + std::to_string(RunRC));
    record(P);
    return P;
  }

  /// Status and byte-identity: every reply is ok, and every reply for one
  /// program (repeats and passes alike) has the same canonical frame.
  /// The first reply's IR per program is kept for checkReplies; the rest
  /// are dropped so memory does not grow with the number of passes.
  void record(ServePass &P) {
    if (FirstFrame.empty()) {
      FirstFrame.assign(IRs.size(), 0);
      FirstIR.assign(IRs.size(), "");
    }
    for (size_t I = 0; I < P.Replies.size(); ++I) {
      Reply &R = P.Replies[I];
      size_t U = Stream[I].Unique;
      ++Out.Attempted;
      std::string IR = std::move(R.IR);
      if (!R.Ok) {
        Out.fail("request " + std::to_string(I) + " (program " +
                 std::to_string(U) + "): status " + R.Status);
        continue;
      }
      if (FirstFrame[U] == 0) {
        FirstFrame[U] = R.Canonical;
        FirstIR[U] = std::move(IR);
      } else if (FirstFrame[U] != R.Canonical) {
        Out.fail("request " + std::to_string(I) + " (program " +
                 std::to_string(U) + "): reply differs from an earlier one");
      }
    }
  }

  /// Set-up and pass until \p UntilMs has passed, at least twice; with a
  /// tracer every second pass records into it (as in Batch.cpp).
  std::vector<ServePass> passesUntil(Clock::time_point Start, double UntilMs,
                                     Tracer *T) {
    std::vector<ServePass> Passes;
    while (Passes.size() < 2 ||
           msSince(Start) + 0.5 * Passes.back().WallMs < UntilMs) {
      bool Traced = T && Passes.size() % 2 == 1;
      setup(1, Passes.empty() ? 0.0 : SetupShare * Passes.back().WallMs);
      Tracer::setActive(Traced ? T : nullptr);
      Passes.push_back(runPass());
      Tracer::setActive(nullptr);
      Passes.back().Traced = Traced;
    }
    return Passes;
  }

  /// Parses, verifies and oracle-checks each program's reply against its
  /// request, and estimates both on the paper machines. With \p Replay,
  /// then splits those estimates per block (Session.h).
  std::vector<SessionResult> checkReplies(bool Replay) {
    std::vector<SessionResult> Results;
    std::vector<KernelProgram> Requests;
    {
      ScopedSpan Root("check", 0);
      for (size_t U = 0; U < IRs.size(); ++U) {
        if (FirstFrame[U] == 0)
          continue; // never answered ok; already a failure
        FuzzParseResult Req, Resp;
        {
          ScopedSpan S("ir.parse", static_cast<int64_t>(U));
          Req = parseFuzzProgram(IRs[U]);
          Resp = parseFuzzProgram(FirstIR[U]);
        }
        ++Out.Attempted;
        if (!Req || !Resp) {
          Out.fail("program " + std::to_string(U) +
                   ": reply does not parse: " + Resp.Error);
          continue;
        }
        SessionSpec Spec;
        Spec.Program = &Req.Program;
        Spec.Treated = std::move(Resp.Program.Func);
        Spec.Opts.Threads = 1;
        Spec.KeepTreated = Replay;
        SessionResult R = runSession(Spec, U);
        if (!R.Ok)
          Out.fail("program " + std::to_string(U) + ": " + R.Error);
        Results.push_back(std::move(R));
        Requests.push_back(std::move(Req.Program));
      }
    }
    if (Replay) {
      ScopedSpan Root("replay", 0);
      for (size_t I = 0; I < Results.size(); ++I)
        if (Results[I].Treated)
          replayEstimate(*Requests[I].Func, *Results[I].Treated,
                         PipelineOptions());
    }
    return Results;
  }

  /// The stream replayed serially into an in-process service.
  void compileReplay() {
    ScopedSpan Root("compile_replay", 0);
    CompileService Service;
    for (size_t I = 0; I < Stream.size(); ++I) {
      ScopedSpan S("serve.compile", static_cast<int64_t>(I));
      CompileResponse R = Service.compile(Stream[I].Req);
      if (!R.ok())
        Out.fail("in-process replay of request " + std::to_string(I) +
                 ": status " + R.Status);
    }
  }

  std::string determinismRecord() const {
    std::string S;
    for (size_t U = 0; U < IRs.size(); ++U) {
      Hasher H;
      H.u64(FirstFrame[U]);
      S += "program " + std::to_string(U) + " " + H.hex() + "\n";
    }
    return S;
  }

  const RunConfig &Cfg;
  Outcome &Out;
  unsigned Workers;
  SetupTimer Setup;
  std::vector<double> BuildMs, GenMs;
  std::vector<std::string> IRs;
  std::vector<Request> Stream;
  std::vector<uint64_t> FirstFrame;
  std::vector<std::string> FirstIR;
};

} // namespace

void cprbench::runServeWorkload(const RunConfig &Cfg, Metrics &M,
                                Outcome &Out) {
  ServeRunner S(Cfg, Out);
  LayerValues L;
  EndToEnd E;
  S.setup(5, 0.0);
  std::fprintf(stderr,
               "cprbench: serve: %zu programs, %zu requests per pass, %u "
               "workers, %u clients (closed loop)\n",
               S.IRs.size(), S.Stream.size(), S.Workers, S.Workers);
  S.runPass(); // warm-up

  Tracer T;
  std::vector<ServePass> All = S.passesUntil(
      Clock::now(), Cfg.Seconds * 1e3, Cfg.Trace ? &T : nullptr);
  // Latency percentiles are over every round trip of the untraced passes
  // (thousands, so p99 has tens of samples beyond it); throughput is the
  // stream over the lower quartile of the pass times.
  std::vector<ServePass> Traced;
  std::vector<double> Rtts, Walls;
  for (ServePass &P : All) {
    if (P.Traced) {
      Traced.push_back(std::move(P));
      continue;
    }
    Walls.push_back(P.WallMs);
    for (const Reply &R : P.Replies)
      Rtts.push_back(R.RttMs);
  }
  reportPassWalls(Walls);
  E.SetupS = S.Setup.seconds();
  E.ProgramsPerS =
      1000.0 * static_cast<double>(S.Stream.size()) / lowerQuartile(Walls);
  E.LatencyP50Ms = percentile(Rtts, 0.50);
  E.LatencyP99Ms = percentile(Rtts, 0.99);

  if (!Cfg.Trace) {
    fillQuality(S.checkReplies(false), E);
  } else {
    Tracer::setActive(&T);
    S.compileReplay();
    std::vector<SessionResult> Checked = S.checkReplies(true);
    fillQuality(Checked, E);
    for (const SessionResult &R : Checked)
      L["interp.dyn_ops"] +=
          static_cast<double>(R.DynOpsBaseline + R.DynOpsTreated);
    Tracer::setActive(nullptr);
    std::vector<Span> Spans = T.spans();

    std::vector<double> Hit, Miss, TracedWalls, Unattributed, AllRtt;
    uint64_t Shed = 0;
    size_t Depth = 0;
    for (const ServePass &P : Traced) {
      TracedWalls.push_back(P.WallMs);
      for (const Reply &R : P.Replies) {
        (R.Miss ? Miss : Hit).push_back(R.RttMs);
        AllRtt.push_back(R.RttMs);
      }
      Shed = std::max(Shed, P.Shed);
      Depth = std::max(Depth, P.QueueDepthMax);
    }
    for (const PassProfile &P : profilePasses(Spans, "pass"))
      Unattributed.push_back(1.0 - P.AttributedMs / (P.WallMs * S.Workers));
    const RegionCacheStats &C = Traced.front().Cache;
    L["serve.rtt_hit_ms"] = median(Hit);
    L["serve.rtt_miss_ms"] = median(Miss);
    L["serve.cache_hits"] = static_cast<double>(C.Hits);
    L["serve.cache_misses"] = static_cast<double>(C.Misses);
    uint64_t Lookups = C.Hits + C.Misses;
    L["serve.cache_hit_ratio"] =
        Lookups ? static_cast<double>(C.Hits) / static_cast<double>(Lookups)
                : 0.0;
    L["serve.cache_evictions"] = static_cast<double>(C.Evictions);
    L["serve.shed"] = static_cast<double>(Shed);
    L["serve.queue_depth_max"] = static_cast<double>(Depth);
    L["trace.overhead"] =
        lowerQuartile(TracedWalls) / lowerQuartile(Walls) - 1.0;
    L["trace.unattributed"] = median(Unattributed);
    L["workloads.build_ms"] = median(S.BuildMs);
    L["fuzz.generate_ms"] = median(S.GenMs);

    std::vector<PassProfile> Replay = profilePasses(Spans, "compile_replay");
    double CompileMs =
        Replay.front().layerMs("serve.compile") / S.Stream.size();
    double MeanRtt = 0;
    for (double R : AllRtt)
      MeanRtt += R / static_cast<double>(AllRtt.size());
    L["serve.compile_ms"] = CompileMs;
    L["serve.transport_ms"] = MeanRtt - CompileMs;

    // The reply check (no transform: the reply is the treated function),
    // and the estimate stage's split.
    std::vector<PassProfile> Checks = profilePasses(Spans, "check");
    const PassProfile &Check = Checks.front();
    for (const char *Name :
         {"interp.profile", "interp.oracle", "analysis.function_analyses",
          "sched.estimate", "ir.parse", "ir.verify", "ir.serialize"})
      L[std::string(Name) + "_ms"] = Check.layerMs(Name);
    for (const MachineDesc &MD : MachineDesc::paperModels())
      L["sched.estimate_ms." + MD.getName()] =
          Check.layerMs("sched.estimate." + MD.getName());
    fillReplayMetrics(Spans, L);
    double ProfileMs = L["interp.profile_ms"];
    L["interp.dyn_ops_per_s"] =
        ProfileMs > 0 ? L["interp.dyn_ops"] / (ProfileMs / 1e3) : 0.0;
    double Bytes = 0;
    for (const std::string &IR : S.IRs)
      Bytes += static_cast<double>(IR.size());
    for (const std::string &IR : S.FirstIR)
      Bytes += static_cast<double>(IR.size());
    for (const SessionResult &R : Checked)
      Bytes += static_cast<double>(R.TreatedIRBytes);
    double ParseMs = L["ir.parse_ms"];
    L["ir.parse_bytes_per_s"] = ParseMs > 0 ? Bytes / (ParseMs / 1e3) : 0.0;

    std::string Path = Cfg.OutDir + "/trace-serve-" +
                       std::to_string(Cfg.Seed) + ".json";
    if (T.writeChromeTrace(Path))
      std::fprintf(stderr, "cprbench: wrote %s\n", Path.c_str());
  }

  E.checkIrredundance(Out);
  if (std::string Err = checkAcrossRuns(Cfg, S.determinismRecord());
      !Err.empty())
    Out.fail(Err);
  if (Cfg.Trace)
    emitLayerMetrics(L, M);
  else
    E.emit(M);
}
