//===- bench/bench_serve.cpp - cprd load driver (cpr-bench-serve) ---------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Load driver for the compile service: replays a mixed workload (the
// built-in Unix-utility kernels, seeded fuzz-generated programs, and the
// committed fuzz regression corpus) against an in-process CompileService
// at several client thread counts, and reports
//
//   - throughput (regions compiled per second),
//   - request latency percentiles (p50 / p95 / p99),
//   - response-cache hit rate and eviction count,
//   - a byte-identity audit: every repeat of a request must produce a
//     response frame byte-identical to the first (cache replay is
//     indistinguishable from a cold compile on the wire).
//
// Each request in the schedule repeats every unique program several
// times (round-robin), so a healthy cache shows a hit rate well above
// 50% -- the committed BENCH_serve.json baseline records it.
//
// Results are written as a cpr-stats-v1.3 document: deterministic facts
// (request/hit/miss counts, identity failures) in "counters", wall-clock
// derived numbers (latency percentiles, regions/s) in "times_ms".
//
//   cpr-bench-serve --out=BENCH_serve.json
//   cpr-bench-serve --quick --out=/tmp/b.json     (CI smoke)
//   cpr-bench-serve --validate=BENCH_serve.json   (schema check only)
//
// Exit codes: 0 success, 1 failure (identity mismatch, bad validate
// target, I/O), 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "serve/Client.h"
#include "serve/CompileService.h"
#include "serve/Server.h"
#include "support/Diagnostic.h"
#include "support/FaultInjector.h"
#include "support/Framing.h"
#include "support/JSON.h"
#include "support/OptionParser.h"
#include "support/RNG.h"
#include "support/Statistics.h"
#include "workloads/Kernels.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace cpr;
using namespace cpr::serve;

namespace {

struct Config {
  std::string Out;
  std::string Validate;
  std::string CorpusDir = "tests/fuzz/regressions";
  unsigned FuzzPrograms = 6;
  unsigned Repeats = 4;
  unsigned Seed = 1;
  unsigned CacheMB = 64;
  bool Chaos = false;
  unsigned ChaosRequests = 500;
  bool Quick = false;
  bool Help = false;
};

OptionTable buildOptions(Config &C) {
  OptionTable T;
  T.addString("--out", "<file>",
              "write the cpr-stats-v1.3 result document here", C.Out);
  T.addString("--validate", "<file>",
              "validate an existing result document against the "
              "cpr-stats schema and exit (no load run)",
              C.Validate);
  T.addString("--corpus", "<dir>",
              "fuzz regression corpus to replay (default "
              "tests/fuzz/regressions)",
              C.CorpusDir);
  T.addUnsigned("--fuzz-programs", "<n>",
                "seeded generator programs to include", C.FuzzPrograms);
  T.addUnsigned("--repeats", "<n>",
                "times each unique program is requested per thread "
                "count (repeats exercise the response cache)",
                C.Repeats);
  T.addUnsigned("--seed", "<n>", "generator seed base", C.Seed);
  T.addUnsigned("--cache-mb", "<n>",
                "response-cache budget in MiB (0 = unlimited)", C.CacheMB);
  T.addFlag("--chaos",
            "run the seeded chaos campaign (adversarial clients against "
            "a live faulted socket daemon) instead of the load run",
            C.Chaos);
  T.addUnsigned("--chaos-requests", "<n>",
                "requests the chaos campaign issues (default 500)",
                C.ChaosRequests);
  T.addFlag("--quick", "small workload for CI smoke runs", C.Quick);
  T.addFlag("--help", "print this help", C.Help);
  T.addFlag("-h", "print this help", C.Help);
  return T;
}

/// One schedulable request: the frame plus bookkeeping for the
/// byte-identity audit (UniqueIdx groups repeats of the same program).
struct WorkItem {
  CompileRequest Req;
  size_t UniqueIdx = 0;
};

/// Builds the unique-program list: built-in kernels (small parameters --
/// the bench measures the service, not the kernels), seeded fuzz
/// programs, and whatever regression corpus is present.
std::vector<std::string> buildPrograms(const Config &C) {
  std::vector<std::string> IRs;
  const size_t Len = C.Quick ? 256 : 1024;
  IRs.push_back(serializeFuzzProgram(buildStrcpyKernel(4, Len, 1)));
  IRs.push_back(serializeFuzzProgram(buildCmpKernel(4, Len, Len - 8, 2)));
  IRs.push_back(serializeFuzzProgram(buildGrepKernel(4, Len, 0.02, 3)));
  IRs.push_back(serializeFuzzProgram(buildWcKernel(4, Len, 4)));
  if (!C.Quick) {
    IRs.push_back(serializeFuzzProgram(buildLexKernel(4, Len, 5)));
    IRs.push_back(serializeFuzzProgram(buildCccpKernel(4, Len, 6)));
  }
  GeneratorConfig GC;
  unsigned NumFuzz = C.Quick ? std::min(C.FuzzPrograms, 2u)
                             : C.FuzzPrograms;
  for (unsigned I = 0; I < NumFuzz; ++I)
    IRs.push_back(serializeFuzzProgram(generateProgram(C.Seed + I, GC)));
  for (const std::string &Path : listCorpusFiles(C.CorpusDir)) {
    FuzzParseResult FP = loadFuzzProgramFile(Path);
    if (FP)
      IRs.push_back(serializeFuzzProgram(FP.Program));
  }
  return IRs;
}

/// The request schedule: every unique program repeated Repeats times,
/// round-robin (u0 u1 ... u0 u1 ...), so repeats of a program arrive
/// interleaved with other work -- the cache-adversarial order.
std::vector<WorkItem> buildSchedule(const std::vector<std::string> &IRs,
                                    unsigned Repeats) {
  std::vector<WorkItem> Items;
  for (unsigned R = 0; R < Repeats; ++R)
    for (size_t U = 0; U < IRs.size(); ++U) {
      WorkItem W;
      W.Req.Id = "u" + std::to_string(U) + "r" + std::to_string(R);
      W.Req.IR = IRs[U];
      W.UniqueIdx = U;
      Items.push_back(std::move(W));
    }
  return Items;
}

struct RunResultRow {
  unsigned Threads = 0;
  size_t Requests = 0;
  size_t OkResponses = 0;
  size_t BusyResponses = 0;
  uint64_t Regions = 0;
  uint64_t CacheHits = 0, CacheMisses = 0, CacheEvictions = 0;
  size_t IdentityFailures = 0;
  double WallMs = 0.0;
  double P50Ms = 0.0, P95Ms = 0.0, P99Ms = 0.0;

  double hitRate() const {
    uint64_t Total = CacheHits + CacheMisses;
    return Total ? static_cast<double>(CacheHits) / Total : 0.0;
  }
  double busyRate() const {
    return Requests ? static_cast<double>(BusyResponses) /
                          static_cast<double>(Requests)
                    : 0.0;
  }
  double regionsPerSec() const {
    return WallMs > 0.0 ? 1000.0 * static_cast<double>(Regions) / WallMs
                        : 0.0;
  }
};

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Sorted.size()));
  if (Idx >= Sorted.size())
    Idx = Sorted.size() - 1;
  return Sorted[Idx];
}

/// Replays the schedule against a fresh service on \p Threads client
/// threads. The byte-identity audit canonicalizes each response frame by
/// re-encoding it with the id of the first repeat (ids differ per repeat
/// by construction; everything else must match byte for byte).
RunResultRow runLoad(const Config &C, const std::vector<WorkItem> &Items,
                     size_t NumUnique, unsigned Threads) {
  ServiceOptions SO;
  SO.CacheBytes = static_cast<size_t>(C.CacheMB) << 20;
  CompileService Service(SO);

  std::vector<double> Latencies(Items.size(), 0.0);
  std::vector<std::string> Canonical(Items.size());
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> Regions{0};
  std::atomic<size_t> Ok{0};
  std::atomic<size_t> Busy{0};

  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&] {
      for (;;) {
        size_t I = Next.fetch_add(1);
        if (I >= Items.size())
          return;
        auto T0 = std::chrono::steady_clock::now();
        CompileResponse Res = Service.compile(Items[I].Req);
        Latencies[I] = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - T0)
                           .count();
        if (Res.ok()) {
          Ok.fetch_add(1);
          Regions.fetch_add(Res.CPR.RegionsProcessed);
        } else if (Res.Status == "busy") {
          // The in-process service has no admission queue, so this stays
          // zero here; the column exists so daemon-backed runs (and the
          // chaos campaign) report shedding in the same schema.
          Busy.fetch_add(1);
        }
        // Canonical frame: the response as if it answered repeat 0.
        Res.Id = "u" + std::to_string(Items[I].UniqueIdx) + "r0";
        // Per-request hit/miss counts legitimately differ between cold
        // and cached runs; blank them for the identity audit (the wire
        // check in tests/serve covers their correctness).
        Res.CacheHits = Res.CacheMisses = 0;
        Canonical[I] = encodeResponse(Res);
      }
    });
  for (std::thread &W : Workers)
    W.join();

  RunResultRow Row;
  Row.Threads = Threads;
  Row.Requests = Items.size();
  Row.OkResponses = Ok.load();
  Row.BusyResponses = Busy.load();
  Row.Regions = Regions.load();
  Row.WallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - Start)
                   .count();

  // Byte-identity audit: all repeats of a unique program produced the
  // same canonical frame.
  std::vector<const std::string *> First(NumUnique, nullptr);
  for (size_t I = 0; I < Items.size(); ++I) {
    const std::string *&F = First[Items[I].UniqueIdx];
    if (!F)
      F = &Canonical[I];
    else if (*F != Canonical[I])
      ++Row.IdentityFailures;
  }

  RegionCacheStats CS = Service.cacheStats();
  Row.CacheHits = CS.Hits;
  Row.CacheMisses = CS.Misses;
  Row.CacheEvictions = CS.Evictions;

  std::sort(Latencies.begin(), Latencies.end());
  Row.P50Ms = percentile(Latencies, 0.50);
  Row.P95Ms = percentile(Latencies, 0.95);
  Row.P99Ms = percentile(Latencies, 0.99);
  return Row;
}

//===----------------------------------------------------------------------===//
// --chaos: the seeded resilience campaign (docs/SERVICE.md "Resilience").
//
// A live socket daemon, periodically armed with serve-layer faults, takes
// >= --chaos-requests adversarial requests from concurrent clients: torn
// frames, malformed frames, pings, pipelined bursts, hard disconnects
// mid-compile, and expired deadlines. Invariants enforced:
//
//   - the daemon never crashes (it drains cleanly and answers a final
//     ping after the abuse stops);
//   - every logical request is eventually answered exactly once (clients
//     reissue after injected drops; duplicates are failures);
//   - every audited `ok` response is byte-identical to what a cold
//     single-threaded CompileService produces for the same request
//     (canonicalized: id rewritten, per-request cache counts blanked).
//
// Requests that carry a deadline are checked for the degrade contract
// (ok + fell_back + deadline-exceeded) instead of byte identity: their
// responses legitimately depend on the wall clock. The exception is a
// response-cache hit, which does no work a deadline could bound: it is
// audited for byte identity like any other ok response.
//===----------------------------------------------------------------------===//

/// One raw connection to the chaos daemon (frame in, frame out).
struct ChaosConn {
  int FD = -1;
  std::unique_ptr<LineReader> Reader;

  explicit ChaosConn(const std::string &Path) {
    FD = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (FD < 0)
      return;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (::connect(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      ::close(FD);
      FD = -1;
      return;
    }
    Reader = std::make_unique<LineReader>(FD);
  }
  ~ChaosConn() {
    if (FD >= 0)
      ::close(FD);
  }
  bool ok() const { return FD >= 0; }
  bool send(const std::string &Bytes) { return writeAll(FD, Bytes); }
  bool readFrame(std::string &Line) { return Reader->readLine(Line); }
  void hardClose() {
    ::close(FD);
    FD = -1;
  }
};

struct ChaosCounters {
  std::atomic<size_t> Issued{0};        ///< logical requests
  std::atomic<size_t> Answered{0};      ///< answered exactly once
  std::atomic<size_t> Reissues{0};      ///< extra attempts after drops
  std::atomic<size_t> Busy{0};          ///< busy refusals absorbed
  std::atomic<size_t> InjectedErrors{0};///< injected decode faults seen
  std::atomic<size_t> Disconnects{0};   ///< deliberate mid-compile closes
  std::atomic<size_t> DeadlineFellBack{0};
  std::atomic<size_t> IdentityFailures{0};
  std::atomic<size_t> ContractFailures{0}; ///< any broken invariant
};

/// Canonical ok-frame: the response as the reference service would label
/// it. Per-request cache counts legitimately differ between a cold and a
/// warmed daemon; everything else must match byte for byte.
std::string canonicalFrame(CompileResponse Res, const std::string &Id) {
  Res.Id = Id;
  Res.CacheHits = Res.CacheMisses = 0;
  return encodeResponse(Res);
}

/// One logical request, retried until answered: injected write faults
/// drop connections (reconnect and reissue), injected admission faults
/// and real capacity produce busy (back off and reissue), injected
/// decode faults produce an id-less parse error (reissue). Returns the
/// terminal response, or nullopt-style false on exhaustion.
bool chaosCall(const std::string &Path, const std::string &Frame,
               ChaosCounters &K, RNG &R, CompileResponse &Out,
               bool TearWrites) {
  for (unsigned Attempt = 0; Attempt < 64; ++Attempt) {
    if (Attempt > 0)
      K.Reissues.fetch_add(1);
    ChaosConn Conn(Path);
    if (!Conn.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    bool Sent;
    if (TearWrites && Frame.size() > 2) {
      size_t Cut = 1 + static_cast<size_t>(
                           R.nextDouble() *
                           static_cast<double>(Frame.size() - 2));
      Sent = Conn.send(Frame.substr(0, Cut)) && Conn.send(Frame.substr(Cut));
    } else {
      Sent = Conn.send(Frame);
    }
    if (!Sent)
      continue; // daemon-side drop beat the send; reissue
    std::string Line;
    if (!Conn.readFrame(Line))
      continue; // response lost to an injected write fault; reissue
    Expected<CompileResponse> Res = decodeResponse(Line);
    if (!Res)
      return false; // an unparseable response frame is a contract break
    if (Res->Status == "busy") {
      K.Busy.fetch_add(1);
      double Hint = 1.0;
      for (const auto &KV : Res->Extra)
        if (KV.first == "retry_after_ms")
          Hint = KV.second;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          Hint > 20.0 ? 20.0 : Hint));
      continue;
    }
    if (Res->Status == "error" && Res->Id.empty()) {
      // The injected frame-decode fault (or an idle-timeout notice):
      // per-frame, not connection-fatal -- reissue the valid request.
      K.InjectedErrors.fetch_add(1);
      continue;
    }
    Out = std::move(*Res);
    return true;
  }
  return false;
}

int runChaos(const Config &C, StatsRegistry &Stats) {
  std::signal(SIGPIPE, SIG_IGN); // a vanished peer must not kill the bench

  // The workload: a handful of unique programs, each with a committed
  // reference frame from a cold single-threaded service.
  GeneratorConfig GC;
  std::vector<std::string> Programs;
  for (unsigned I = 0; I < 5; ++I)
    Programs.push_back(serializeFuzzProgram(generateProgram(C.Seed + I, GC)));
  auto MakeRequest = [&](size_t U, std::string Id) {
    CompileRequest Req;
    Req.Id = std::move(Id);
    Req.IR = Programs[U];
    return Req;
  };
  CompileService Reference((ServiceOptions()));
  std::vector<std::string> RefFrames;
  for (size_t U = 0; U < Programs.size(); ++U)
    RefFrames.push_back(canonicalFrame(
        Reference.compile(MakeRequest(U, "ref")), "ref"));

  const std::string Path = "/tmp/cpr_bench_chaos_" +
                           std::to_string(::getpid()) + ".sock";
  ServerOptions SO;
  SO.SocketPath = Path;
  SO.Threads = 4;
  SO.MaxQueue = 32;
  SO.MaxPipeline = 8;
  SO.WriteTimeoutMs = 5000.0;
  Server Daemon(SO);
  std::thread Runner([&] { Daemon.runSocket(); });
  for (int I = 0; I < 100 && ::access(Path.c_str(), F_OK) != 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const char *FaultSites[] = {"serve.frame.decode", "serve.dispatch.enqueue",
                              "serve.cache.insert", "serve.socket.write"};
  ChaosCounters K;
  const unsigned ClientCount = 4;
  const size_t Total = C.ChaosRequests;
  std::atomic<size_t> NextReq{0};

  std::vector<std::thread> Clients;
  for (unsigned T = 0; T < ClientCount; ++T)
    Clients.emplace_back([&, T] {
      RNG R(C.Seed * 7919 + T);
      for (;;) {
        size_t N = NextReq.fetch_add(1);
        if (N >= Total)
          return;
        // Periodically re-arm a serve-layer fault so abuse lands on a
        // *faulted* daemon. Single global armed site; races between
        // clients only change which request absorbs the fault.
        if (N % 7 == 0)
          fault::arm(FaultSites[(N / 7) % 4], 1 + N % 3);
        K.Issued.fetch_add(1);
        std::string Id = "q" + std::to_string(N);
        double Dice = R.nextDouble();
        if (Dice < 0.60) {
          // A good compile, torn writes half the time; byte-identity
          // audited against the cold reference.
          size_t U = N % Programs.size();
          CompileRequest Req = MakeRequest(U, Id);
          CompileResponse Res;
          if (!chaosCall(Path, encodeRequest(Req) + "\n", K, R, Res,
                         /*TearWrites=*/R.nextDouble() < 0.5)) {
            K.ContractFailures.fetch_add(1);
            continue;
          }
          K.Answered.fetch_add(1);
          if (Res.Status != "ok" ||
              canonicalFrame(std::move(Res), "ref") != RefFrames[U])
            K.IdentityFailures.fetch_add(1);
        } else if (Dice < 0.70) {
          CompileRequest Ping;
          Ping.Kind = RequestKind::Ping;
          Ping.Id = Id;
          CompileResponse Res;
          if (chaosCall(Path, encodeRequest(Ping) + "\n", K, R, Res,
                        false) &&
              Res.Status == "pong")
            K.Answered.fetch_add(1);
          else
            K.ContractFailures.fetch_add(1);
        } else if (Dice < 0.80) {
          // Malformed frame: owed exactly one id-less parse error.
          ChaosConn Conn(Path);
          std::string Line;
          if (Conn.ok() && Conn.send("{torn garbage " + Id + "\n") &&
              Conn.readFrame(Line)) {
            Expected<CompileResponse> Res = decodeResponse(Line);
            if (Res && Res->Status == "error")
              K.Answered.fetch_add(1);
            else
              K.ContractFailures.fetch_add(1);
          } else {
            // The daemon may have dropped us first (injected write
            // fault); a lost error frame for garbage is not a break.
            K.Answered.fetch_add(1);
          }
        } else if (Dice < 0.90) {
          // Vanish mid-compile: no response owed; the daemon must bill
          // the drop to this connection and keep serving.
          ChaosConn Conn(Path);
          if (Conn.ok())
            Conn.send(encodeRequest(MakeRequest(N % Programs.size(), Id)) +
                      "\n");
          Conn.hardClose();
          K.Disconnects.fetch_add(1);
          K.Answered.fetch_add(1); // nothing owed: trivially satisfied
        } else {
          // An expired deadline must degrade fail-safe, never hang.
          size_t U = N % Programs.size();
          CompileRequest Req = MakeRequest(U, Id);
          Req.DeadlineMs = 0.01;
          CompileResponse Res;
          if (!chaosCall(Path, encodeRequest(Req) + "\n", K, R, Res,
                         false)) {
            K.ContractFailures.fetch_add(1);
            continue;
          }
          K.Answered.fetch_add(1);
          if (Res.CacheHits > 0) {
            if (Res.Status != "ok" ||
                canonicalFrame(std::move(Res), "ref") != RefFrames[U])
              K.IdentityFailures.fetch_add(1);
            continue;
          }
          bool FellBackWithCode = Res.FellBack;
          if (FellBackWithCode) {
            bool Found = false;
            for (const WireDiagnostic &W : Res.Diagnostics)
              Found = Found || W.Code == "deadline-exceeded";
            FellBackWithCode = Found;
            K.DeadlineFellBack.fetch_add(1);
          }
          if (Res.Status != "ok" || !FellBackWithCode)
            K.ContractFailures.fetch_add(1);
        }
      }
    });
  for (std::thread &T : Clients)
    T.join();
  fault::disarm();

  // The daemon survived the abuse iff it still answers cold.
  bool Alive = false;
  {
    CompileRequest Ping;
    Ping.Kind = RequestKind::Ping;
    Ping.Id = "post-chaos";
    RNG R(1);
    CompileResponse Res;
    ChaosCounters Scratch;
    Alive = chaosCall(Path, encodeRequest(Ping) + "\n", Scratch, R, Res,
                      false) &&
            Res.Status == "pong";
  }
  Daemon.requestStop();
  Runner.join();
  ServerStats S = Daemon.stats();

  Stats.addCount("chaos/requests", static_cast<double>(K.Issued.load()));
  Stats.addCount("chaos/answered", static_cast<double>(K.Answered.load()));
  Stats.addCount("chaos/reissues", static_cast<double>(K.Reissues.load()));
  Stats.addCount("chaos/busy", static_cast<double>(K.Busy.load()));
  Stats.addCount("chaos/injected_errors",
                 static_cast<double>(K.InjectedErrors.load()));
  Stats.addCount("chaos/disconnects",
                 static_cast<double>(K.Disconnects.load()));
  Stats.addCount("chaos/deadline_fell_back",
                 static_cast<double>(K.DeadlineFellBack.load()));
  Stats.addCount("chaos/identity_failures",
                 static_cast<double>(K.IdentityFailures.load()));
  Stats.addCount("chaos/contract_failures",
                 static_cast<double>(K.ContractFailures.load()));
  Stats.addCount("chaos/daemon_accepted", static_cast<double>(S.Accepted));
  Stats.addCount("chaos/daemon_shed", static_cast<double>(S.Shed));
  Stats.addCount("chaos/daemon_dropped", static_cast<double>(S.Dropped));
  Stats.addCount("chaos/daemon_alive", Alive ? 1.0 : 0.0);

  std::fprintf(stderr,
               "cpr-bench-serve: chaos: %zu request(s), %zu answered, "
               "%zu reissue(s), %zu busy, %zu injected error(s), "
               "%zu disconnect(s); daemon accepted %llu, shed %llu, "
               "dropped %llu; %zu identity / %zu contract failure(s)%s\n",
               K.Issued.load(), K.Answered.load(), K.Reissues.load(),
               K.Busy.load(), K.InjectedErrors.load(), K.Disconnects.load(),
               static_cast<unsigned long long>(S.Accepted),
               static_cast<unsigned long long>(S.Shed),
               static_cast<unsigned long long>(S.Dropped),
               K.IdentityFailures.load(), K.ContractFailures.load(),
               Alive ? "" : "; DAEMON DEAD");

  bool Clean = Alive && K.Answered.load() == K.Issued.load() &&
               K.IdentityFailures.load() == 0 &&
               K.ContractFailures.load() == 0 &&
               (K.Disconnects.load() == 0 || S.Dropped > 0);
  if (!Clean)
    std::fprintf(stderr, "cpr-bench-serve: chaos campaign FAILED\n");
  return Clean ? exit_codes::Success : exit_codes::Failure;
}

/// --validate: the committed baseline (and CI artifacts) must be a
/// cpr-stats-v1.2/v1.3 document with the serve keys present and numeric.
int validateDocument(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cpr-bench-serve: cannot open '%s'\n",
                 Path.c_str());
    return exit_codes::Failure;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  JSONParseResult PR = parseJSON(Buf.str());
  if (!PR) {
    std::fprintf(stderr, "cpr-bench-serve: %s: %s\n", Path.c_str(),
                 PR.Error.c_str());
    return exit_codes::Failure;
  }
  const JSONValue &Doc = PR.Value;
  // v1.3 added the additive sim/* counter families; serve documents are
  // unchanged between the two, so baselines written under either schema
  // validate.
  const JSONValue *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() ||
      (Schema->getString() != "cpr-stats-v1.2" &&
       Schema->getString() != "cpr-stats-v1.3")) {
    std::fprintf(stderr,
                 "cpr-bench-serve: %s: missing or wrong \"schema\" "
                 "(want cpr-stats-v1.2 or cpr-stats-v1.3)\n",
                 Path.c_str());
    return exit_codes::Failure;
  }
  const JSONValue *Counters = Doc.find("counters");
  if (!Counters || !Counters->isObject()) {
    std::fprintf(stderr, "cpr-bench-serve: %s: missing \"counters\"\n",
                 Path.c_str());
    return exit_codes::Failure;
  }
  for (const auto &M : Counters->members())
    if (!M.second.isNumber()) {
      std::fprintf(stderr,
                   "cpr-bench-serve: %s: counter \"%s\" is not a "
                   "number\n",
                   Path.c_str(), M.first.c_str());
      return exit_codes::Failure;
    }
  size_t ThreadRows = 0;
  for (const auto &M : Counters->members())
    if (M.first.size() > 6 && M.first.compare(0, 7, "serve/t") == 0 &&
        M.first.find("/requests") != std::string::npos)
      ++ThreadRows;
  if (ThreadRows < 4) {
    std::fprintf(stderr,
                 "cpr-bench-serve: %s: want serve/t*/requests rows for "
                 ">=4 thread counts, found %zu\n",
                 Path.c_str(), ThreadRows);
    return exit_codes::Failure;
  }
  const JSONValue *Identity = Counters->find("serve/identity_failures");
  if (!Identity || !Identity->isNumber() || Identity->getNumber() != 0) {
    std::fprintf(stderr,
                 "cpr-bench-serve: %s: serve/identity_failures missing "
                 "or nonzero\n",
                 Path.c_str());
    return exit_codes::Failure;
  }
  std::printf("cpr-bench-serve: %s: valid cpr-stats document "
              "(%zu thread rows)\n",
              Path.c_str(), ThreadRows);
  return exit_codes::Success;
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  OptionTable Options = buildOptions(C);
  const std::string Usage = "usage: cpr-bench-serve [options]";

  std::string ParseError;
  std::vector<std::string> Positional;
  if (!Options.parse(argc, argv, ParseError, &Positional) ||
      !Positional.empty()) {
    if (!ParseError.empty())
      std::fprintf(stderr, "cpr-bench-serve: %s\n", ParseError.c_str());
    std::fprintf(stderr, "%s", Options.help(Usage).c_str());
    return exit_codes::UsageError;
  }
  if (C.Help) {
    std::printf("%s", Options.help(Usage).c_str());
    return exit_codes::Success;
  }
  if (!C.Validate.empty())
    return validateDocument(C.Validate);

  if (C.Chaos) {
    if (C.Quick && C.ChaosRequests > 150)
      C.ChaosRequests = 150;
    StatsRegistry ChaosStats;
    int RC = runChaos(C, ChaosStats);
    if (!C.Out.empty()) {
      std::string Error;
      if (!writeStatsJSONFile(ChaosStats, C.Out, &Error)) {
        std::fprintf(stderr, "cpr-bench-serve: %s\n", Error.c_str());
        return exit_codes::Failure;
      }
      std::fprintf(stderr, "cpr-bench-serve: wrote %s\n", C.Out.c_str());
    } else {
      std::printf("%s\n", ChaosStats.toJSONText().c_str());
    }
    return RC;
  }

  std::vector<std::string> IRs = buildPrograms(C);
  if (C.Quick && C.Repeats > 2)
    C.Repeats = 2;
  std::vector<WorkItem> Items = buildSchedule(IRs, C.Repeats);
  std::fprintf(stderr,
               "cpr-bench-serve: %zu unique program(s), %u repeat(s), "
               "%zu request(s) per thread count\n",
               IRs.size(), C.Repeats, Items.size());

  const unsigned ThreadCounts[] = {1, 2, 4, 8};
  StatsRegistry Stats;
  size_t TotalIdentityFailures = 0;
  for (unsigned T : ThreadCounts) {
    RunResultRow Row = runLoad(C, Items, IRs.size(), T);
    TotalIdentityFailures += Row.IdentityFailures;
    std::fprintf(stderr,
                 "  t=%u: %zu req in %.0f ms, %.0f regions/s, "
                 "p50=%.2f p95=%.2f p99=%.2f ms, hit rate %.1f%%, "
                 "%llu eviction(s)%s\n",
                 T, Row.Requests, Row.WallMs, Row.regionsPerSec(),
                 Row.P50Ms, Row.P95Ms, Row.P99Ms, 100.0 * Row.hitRate(),
                 static_cast<unsigned long long>(Row.CacheEvictions),
                 Row.IdentityFailures ? "  IDENTITY FAILURES" : "");

    const std::string P = "serve/t" + std::to_string(T) + "/";
    Stats.addCount(P + "requests", static_cast<double>(Row.Requests));
    Stats.addCount(P + "ok", static_cast<double>(Row.OkResponses));
    Stats.addCount(P + "regions", static_cast<double>(Row.Regions));
    Stats.addCount(P + "cache_hits", static_cast<double>(Row.CacheHits));
    Stats.addCount(P + "cache_misses",
                   static_cast<double>(Row.CacheMisses));
    Stats.addCount(P + "cache_evictions",
                   static_cast<double>(Row.CacheEvictions));
    Stats.addCount(P + "shed", static_cast<double>(Row.BusyResponses));
    Stats.addCount(P + "busy_rate_pct", 100.0 * Row.busyRate());
    Stats.addCount(P + "hit_rate_pct", 100.0 * Row.hitRate());
    Stats.recordTimeMs(P + "wall_ms", Row.WallMs);
    Stats.recordTimeMs(P + "p50_ms", Row.P50Ms);
    Stats.recordTimeMs(P + "p95_ms", Row.P95Ms);
    Stats.recordTimeMs(P + "p99_ms", Row.P99Ms);
    Stats.recordTimeMs(P + "regions_per_sec", Row.regionsPerSec());
  }
  Stats.addCount("serve/identity_failures",
                 static_cast<double>(TotalIdentityFailures));
  Stats.addCount("serve/unique_programs", static_cast<double>(IRs.size()));
  Stats.addCount("serve/repeats", C.Repeats);

  if (!C.Out.empty()) {
    std::string Error;
    if (!writeStatsJSONFile(Stats, C.Out, &Error)) {
      std::fprintf(stderr, "cpr-bench-serve: %s\n", Error.c_str());
      return exit_codes::Failure;
    }
    std::fprintf(stderr, "cpr-bench-serve: wrote %s\n", C.Out.c_str());
  } else {
    std::printf("%s\n", Stats.toJSONText().c_str());
  }

  if (TotalIdentityFailures > 0) {
    std::fprintf(stderr,
                 "cpr-bench-serve: FAILED: %zu response(s) were not "
                 "byte-identical across repeats\n",
                 TotalIdentityFailures);
    return exit_codes::Failure;
  }
  return exit_codes::Success;
}
