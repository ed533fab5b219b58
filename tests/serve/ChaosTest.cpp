//===- tests/serve/ChaosTest.cpp - Adversarial clients vs cprd ------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The resilience contract (docs/SERVICE.md "Resilience"), checked against
// a live in-process daemon on a Unix socket with deliberately hostile
// clients: torn frames, half-closed sockets, disconnects mid-compile,
// pipelined floods, oversized frames, slowloris stalls, and every
// serve-layer fault site armed in turn. Invariants:
//
//   - the daemon never crashes (every scenario ends with a live ping);
//   - every accepted request gets exactly one response;
//   - misbehavior is billed to the connection that misbehaved, never to
//     the daemon or to other clients.
//
// The last case is the seeded campaign: 200 logical requests from four
// concurrent clients against a periodically faulted daemon, every `ok`
// answer audited byte for byte against a cold single-threaded service.
// Its size and seed are fixed here; the tier-1 run and the ASan and TSan
// CI jobs (their `Chaos` filters) all run it.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/CompileService.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "support/FaultInjector.h"
#include "support/Framing.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cpr;
using namespace cpr::serve;

namespace {

// The daemon ignores SIGPIPE (tools/cprd.cpp); the test process hosting
// an in-process daemon must too, or a vanished peer kills the suite.
struct IgnoreSigpipe {
  IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }
} IgnoreSigpipeInit;

/// An in-process daemon on a fresh temp socket. start() blocks until the
/// socket is accepting; the destructor stops and joins.
class DaemonFixture {
public:
  explicit DaemonFixture(ServerOptions SO) {
    static std::atomic<unsigned> Counter{0};
    Path = "/tmp/cpr_chaos_" + std::to_string(::getpid()) + "_" +
           std::to_string(Counter.fetch_add(1)) + ".sock";
    SO.SocketPath = Path;
    Daemon = std::make_unique<Server>(std::move(SO));
    Runner = std::thread([this] { Daemon->runSocket(); });
    for (int I = 0; I < 100 && ::access(Path.c_str(), F_OK) != 0; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(::access(Path.c_str(), F_OK), 0) << "daemon never bound";
  }
  ~DaemonFixture() {
    Daemon->requestStop();
    Runner.join();
  }

  const std::string &path() const { return Path; }
  Server &daemon() { return *Daemon; }

  /// The liveness probe every scenario ends with: a fresh connection's
  /// ping must come back "pong".
  void expectAlive() {
    Expected<Client> C = Client::connect(Path);
    ASSERT_TRUE(C.ok()) << C.diagnostic().str();
    CompileRequest Ping;
    Ping.Kind = RequestKind::Ping;
    Ping.Id = "alive";
    Expected<CompileResponse> R = C->roundTrip(Ping);
    ASSERT_TRUE(R.ok()) << R.diagnostic().str();
    EXPECT_EQ(R->Status, "pong");
  }

private:
  std::string Path;
  std::unique_ptr<Server> Daemon;
  std::thread Runner;
};

/// A byte-level client for sending deliberately broken input.
class RawClient {
public:
  explicit RawClient(const std::string &Path) {
    FD = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (::connect(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      ::close(FD);
      FD = -1;
    }
    Reader = std::make_unique<LineReader>(FD);
  }
  ~RawClient() {
    if (FD >= 0)
      ::close(FD);
  }

  bool connected() const { return FD >= 0; }
  bool send(const std::string &Bytes) { return writeAll(FD, Bytes); }
  bool sendFrame(const CompileRequest &Req) {
    return send(encodeRequest(Req) + "\n");
  }
  bool readFrame(std::string &Line) { return Reader->readLine(Line); }
  void halfClose() { ::shutdown(FD, SHUT_WR); }
  void hardClose() {
    ::close(FD);
    FD = -1;
  }

private:
  int FD = -1;
  std::unique_ptr<LineReader> Reader;
};

std::string testProgram(uint64_t Seed) {
  GeneratorConfig GC;
  return serializeFuzzProgram(generateProgram(Seed, GC));
}

CompileRequest compileRequest(std::string Id, uint64_t Seed) {
  CompileRequest Req;
  Req.Id = std::move(Id);
  Req.IR = testProgram(Seed);
  return Req;
}

bool hasDiagCode(const CompileResponse &Res, const std::string &Code) {
  for (const WireDiagnostic &W : Res.Diagnostics)
    if (W.Code == Code)
      return true;
  return false;
}

double extraValue(const CompileResponse &Res, const std::string &Key,
                  double Missing = -1.0) {
  for (const auto &KV : Res.Extra)
    if (KV.first == Key)
      return KV.second;
  return Missing;
}

TEST(Chaos, TornFramesReassembleAcrossArbitraryWriteBoundaries) {
  DaemonFixture D(ServerOptions{});
  RawClient C(D.path());
  ASSERT_TRUE(C.connected());
  // One byte per write(): every tear a stream socket can produce.
  CompileRequest Ping;
  Ping.Kind = RequestKind::Ping;
  Ping.Id = "torn";
  const std::string Frame = encodeRequest(Ping) + "\n";
  for (char B : Frame)
    ASSERT_TRUE(C.send(std::string(1, B)));
  std::string Line;
  ASSERT_TRUE(C.readFrame(Line));
  Expected<CompileResponse> Res = decodeResponse(Line);
  ASSERT_TRUE(Res.ok());
  EXPECT_EQ(Res->Id, "torn");
  EXPECT_EQ(Res->Status, "pong");
  D.expectAlive();
}

TEST(Chaos, UnknownCmdAnswersWithTheCommandRegistry) {
  DaemonFixture D(ServerOptions{});
  RawClient C(D.path());
  ASSERT_TRUE(C.connected());
  ASSERT_TRUE(C.send("{\"proto\":\"cprd-v1\",\"cmd\":\"flush\","
                     "\"id\":\"x\"}\n"));
  std::string Line;
  ASSERT_TRUE(C.readFrame(Line));
  Expected<CompileResponse> Res = decodeResponse(Line);
  ASSERT_TRUE(Res.ok());
  EXPECT_EQ(Res->Status, "error");
  ASSERT_FALSE(Res->Diagnostics.empty());
  EXPECT_NE(Res->Diagnostics[0].Message.find("registered commands: " +
                                             requestCommandList()),
            std::string::npos)
      << Res->Diagnostics[0].Message;
  D.expectAlive();
}

TEST(Chaos, OversizedFrameRejectedWithoutBufferingIt) {
  ServerOptions SO;
  SO.MaxFrameBytes = 512;
  DaemonFixture D(SO);
  RawClient C(D.path());
  ASSERT_TRUE(C.connected());
  // 16x the cap, no newline: the daemon must reject while reading.
  C.send(std::string(8192, 'x'));
  std::string Line;
  ASSERT_TRUE(C.readFrame(Line));
  Expected<CompileResponse> Res = decodeResponse(Line);
  ASSERT_TRUE(Res.ok());
  EXPECT_EQ(Res->Status, "error");
  ASSERT_FALSE(Res->Diagnostics.empty());
  EXPECT_NE(Res->Diagnostics[0].Message.find("frame rejected"),
            std::string::npos);
  // The stream is no longer frame-aligned: the connection ends here.
  EXPECT_FALSE(C.readFrame(Line));
  D.expectAlive();
}

TEST(Chaos, HalfClosedConnectionStillReceivesEveryResponse) {
  DaemonFixture D(ServerOptions{});
  RawClient C(D.path());
  ASSERT_TRUE(C.connected());
  // Pipeline three requests, then shut down the write side before any
  // response arrives. EOF means "no more requests", never "discard my
  // responses".
  ASSERT_TRUE(C.sendFrame(compileRequest("h1", 101)));
  ASSERT_TRUE(C.sendFrame(compileRequest("h2", 102)));
  CompileRequest Ping;
  Ping.Kind = RequestKind::Ping;
  Ping.Id = "h3";
  ASSERT_TRUE(C.sendFrame(Ping));
  C.halfClose();
  std::set<std::string> Ids;
  std::string Line;
  while (C.readFrame(Line)) {
    Expected<CompileResponse> Res = decodeResponse(Line);
    ASSERT_TRUE(Res.ok());
    EXPECT_TRUE(Ids.insert(Res->Id).second) << "duplicate " << Res->Id;
  }
  EXPECT_EQ(Ids, (std::set<std::string>{"h1", "h2", "h3"}));
  D.expectAlive();
}

TEST(Chaos, DisconnectMidCompileIsCountedAndCancelled) {
  DaemonFixture D(ServerOptions{});
  uint64_t Before = D.daemon().stats().Dropped;
  {
    RawClient C(D.path());
    ASSERT_TRUE(C.connected());
    ASSERT_TRUE(C.sendFrame(compileRequest("gone", 103)));
    C.hardClose(); // vanish while the compile runs
  }
  // The response write fails against the closed peer; the daemon must
  // bill the drop to the connection (never crash, never hang).
  uint64_t After = Before;
  for (int I = 0; I < 250 && After == Before; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    After = D.daemon().stats().Dropped;
  }
  EXPECT_GT(After, Before);
  D.expectAlive();
}

TEST(Chaos, PipelinedFloodIsShedWithRetryHints) {
  ServerOptions SO;
  SO.Threads = 1;
  SO.MaxPipeline = 1;
  DaemonFixture D(SO);
  RawClient C(D.path());
  ASSERT_TRUE(C.connected());
  const unsigned N = 8;
  // Distinct programs, every frame built before any is sent: each
  // accepted request is a full compile while the next frames are already
  // queued. (Repeats of one program would be response-cache hits,
  // answered faster than a client under load sends.)
  std::vector<CompileRequest> Flood;
  for (unsigned I = 0; I < N; ++I)
    Flood.push_back(compileRequest("f" + std::to_string(I), 104 + I));
  for (const CompileRequest &Req : Flood)
    ASSERT_TRUE(C.sendFrame(Req));
  C.halfClose();
  std::set<std::string> Ids;
  unsigned Busy = 0;
  std::string Line;
  while (C.readFrame(Line)) {
    Expected<CompileResponse> Res = decodeResponse(Line);
    ASSERT_TRUE(Res.ok());
    EXPECT_TRUE(Ids.insert(Res->Id).second) << "duplicate " << Res->Id;
    if (Res->Status == "busy") {
      ++Busy;
      // Every refusal carries a positive deterministic backoff hint.
      EXPECT_GT(extraValue(*Res, "retry_after_ms"), 0.0);
    } else {
      EXPECT_EQ(Res->Status, "ok");
    }
  }
  // Exactly one response per request, accepted or refused.
  EXPECT_EQ(Ids.size(), N);
  // The reader outruns a single worker: the pipeline cap must trip.
  EXPECT_GE(Busy, 1u);
  EXPECT_GE(D.daemon().stats().Shed, Busy);
  D.expectAlive();
}

TEST(Chaos, ExpiredDeadlineDegradesFailSafe) {
  DaemonFixture D(ServerOptions{});
  Expected<Client> C = Client::connect(D.path());
  ASSERT_TRUE(C.ok());
  CompileRequest Req = compileRequest("dl", 105);
  Req.DeadlineMs = 0.01; // expired by the first stage boundary
  Expected<CompileResponse> Res = C->roundTrip(Req);
  ASSERT_TRUE(Res.ok()) << Res.diagnostic().str();
  // Deadline expiry degrades exactly like budget exhaustion: fail-safe
  // fallback to the untransformed input, never a hang or hard error.
  EXPECT_EQ(Res->Status, "ok");
  EXPECT_TRUE(Res->FellBack);
  EXPECT_TRUE(hasDiagCode(*Res, "deadline-exceeded"))
      << encodeResponse(*Res);
  // A sane deadline on the same program compiles fully.
  CompileRequest Ok = compileRequest("dl2", 105);
  Ok.DeadlineMs = 60000.0;
  Expected<CompileResponse> Res2 = C->roundTrip(Ok);
  ASSERT_TRUE(Res2.ok());
  EXPECT_EQ(Res2->Status, "ok");
  EXPECT_FALSE(Res2->FellBack) << encodeResponse(*Res2);
  D.expectAlive();
}

TEST(Chaos, SlowlorisTripsTheIdleTimeout) {
  ServerOptions SO;
  SO.IdleTimeoutMs = 150.0;
  DaemonFixture D(SO);
  uint64_t Before = D.daemon().stats().Dropped;
  RawClient C(D.path());
  ASSERT_TRUE(C.connected());
  C.send("{\"proto\":"); // half a frame, then silence
  std::string Line;
  ASSERT_TRUE(C.readFrame(Line)); // best-effort notice before the drop
  Expected<CompileResponse> Res = decodeResponse(Line);
  ASSERT_TRUE(Res.ok());
  EXPECT_EQ(Res->Status, "error");
  ASSERT_FALSE(Res->Diagnostics.empty());
  EXPECT_NE(Res->Diagnostics[0].Message.find("idle timeout"),
            std::string::npos);
  EXPECT_FALSE(C.readFrame(Line)); // then the connection ends
  EXPECT_GT(D.daemon().stats().Dropped, Before);
  D.expectAlive();
}

TEST(Chaos, EveryServeFaultSiteLeavesTheDaemonServing) {
  DaemonFixture D(ServerOptions{});

  { // A faulted decode is a per-frame parse error, not connection-fatal.
    fault::ScopedFault Armed("serve.frame.decode", 1);
    RawClient C(D.path());
    ASSERT_TRUE(C.connected());
    ASSERT_TRUE(C.sendFrame(compileRequest("fd", 106)));
    std::string Line;
    ASSERT_TRUE(C.readFrame(Line));
    Expected<CompileResponse> Res = decodeResponse(Line);
    ASSERT_TRUE(Res.ok());
    EXPECT_EQ(Res->Status, "error");
    EXPECT_TRUE(hasDiagCode(*Res, "parse-error"));
  }
  { // A faulted enqueue sheds a request the queue had room for.
    fault::ScopedFault Armed("serve.dispatch.enqueue", 1);
    RawClient C(D.path());
    ASSERT_TRUE(C.connected());
    ASSERT_TRUE(C.sendFrame(compileRequest("de", 106)));
    std::string Line;
    ASSERT_TRUE(C.readFrame(Line));
    Expected<CompileResponse> Res = decodeResponse(Line);
    ASSERT_TRUE(Res.ok());
    EXPECT_EQ(Res->Status, "busy");
  }
  { // A faulted cache insert drops the entry; the compile still answers.
    fault::ScopedFault Armed("serve.cache.insert", 1);
    RawClient C(D.path());
    ASSERT_TRUE(C.connected());
    ASSERT_TRUE(C.sendFrame(compileRequest("ci", 106)));
    std::string Line;
    ASSERT_TRUE(C.readFrame(Line));
    Expected<CompileResponse> Res = decodeResponse(Line);
    ASSERT_TRUE(Res.ok());
    EXPECT_EQ(Res->Status, "ok");
  }
  uint64_t Before = D.daemon().stats().Dropped;
  { // A faulted socket write behaves like a vanished peer: the frame is
    // dropped and the connection torn down -- never a crash.
    fault::ScopedFault Armed("serve.socket.write", 1);
    RawClient C(D.path());
    ASSERT_TRUE(C.connected());
    CompileRequest Ping;
    Ping.Kind = RequestKind::Ping;
    Ping.Id = "sw";
    ASSERT_TRUE(C.sendFrame(Ping));
    std::string Line;
    EXPECT_FALSE(C.readFrame(Line)); // response lost, connection closed
  }
  EXPECT_GT(D.daemon().stats().Dropped, Before);
  D.expectAlive();
}

TEST(Chaos, RetryingClientRidesOutBusyAndRecovers) {
  ServerOptions SO;
  SO.Threads = 1;
  SO.MaxQueue = 1;
  DaemonFixture D(SO);
  // Occupy the whole queue with pipelined compiles from one connection.
  RawClient Hog(D.path());
  ASSERT_TRUE(Hog.connected());
  for (unsigned I = 0; I < 4; ++I)
    ASSERT_TRUE(Hog.sendFrame(compileRequest("hog" + std::to_string(I),
                                             107 + I)));
  // A bare roundTrip would likely see "busy"; callWithRetry backs off
  // (honoring retry_after_ms) until the hog's work drains.
  CompileRequest Ping;
  Ping.Kind = RequestKind::Ping;
  Ping.Id = "patient";
  RetryPolicy Policy;
  Policy.MaxRetries = 50;
  Policy.InitialBackoffMs = 2.0;
  Policy.MaxBackoffMs = 50.0;
  Policy.DeadlineMs = 30000.0;
  Expected<CompileResponse> Res =
      Client::callWithRetry(D.path(), Ping, Policy);
  ASSERT_TRUE(Res.ok()) << Res.diagnostic().str();
  EXPECT_EQ(Res->Status, "pong");
  Hog.halfClose();
  std::string Line;
  while (Hog.readFrame(Line))
    ; // drain the hog's responses
  D.expectAlive();
}

TEST(Chaos, RetryingClientGivesUpCleanlyWhenNoDaemonExists) {
  RetryPolicy Policy;
  Policy.MaxRetries = 2;
  Policy.InitialBackoffMs = 1.0;
  CompileRequest Ping;
  Ping.Kind = RequestKind::Ping;
  Ping.Id = "void";
  Expected<CompileResponse> Res = Client::callWithRetry(
      "/tmp/cpr_chaos_no_such_daemon.sock", Ping, Policy);
  ASSERT_FALSE(Res.ok());
  EXPECT_EQ(Res.diagnostic().Code, DiagCode::IOError);
}

TEST(Chaos, StatsExposesTheResilienceCounters) {
  ServerOptions SO;
  SO.MaxQueue = 32;
  DaemonFixture D(SO);
  Expected<Client> C = Client::connect(D.path());
  ASSERT_TRUE(C.ok());
  Expected<CompileResponse> R1 = C->roundTrip(compileRequest("s1", 110));
  ASSERT_TRUE(R1.ok());
  EXPECT_EQ(R1->Status, "ok");
  CompileRequest Stats;
  Stats.Kind = RequestKind::Stats;
  Stats.Id = "st";
  Expected<CompileResponse> Res = C->roundTrip(Stats);
  ASSERT_TRUE(Res.ok());
  for (const char *Key : {"queue_depth", "in_flight", "accepted", "shed",
                          "connections_dropped", "max_queue"})
    EXPECT_GE(extraValue(*Res, Key), 0.0) << Key << " missing";
  EXPECT_EQ(extraValue(*Res, "max_queue"), 32.0);
  EXPECT_GE(extraValue(*Res, "accepted"), 2.0); // s1 + this stats request
  EXPECT_GE(extraValue(*Res, "responses/ok"), 1.0);
  D.expectAlive();
}

TEST(Chaos, MiniCampaignEveryAcceptedRequestGetsExactlyOneResponse) {
  ServerOptions SO;
  SO.Threads = 2;
  DaemonFixture D(SO);
  // Four adversarial clients, each mixing good compiles (repeating two
  // unique programs), pings, malformed frames, and torn writes. Per
  // client: N frames in (pipelined), N responses out, ids unique, and
  // repeats of the same program answer with identical transformed IR.
  const unsigned Clients = 4, PerClient = 15;
  std::vector<std::string> Programs = {testProgram(111), testProgram(112)};
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Clients; ++T)
    Threads.emplace_back([&, T] {
      RawClient C(D.path());
      if (!C.connected()) {
        ++Failures;
        return;
      }
      std::set<std::string> Want;
      for (unsigned I = 0; I < PerClient; ++I) {
        std::string Id = "c" + std::to_string(T) + "r" + std::to_string(I);
        std::string Frame;
        switch (I % 5) {
        case 0:
        case 1: { // a good compile of program (I%2)
          CompileRequest Req;
          Req.Id = Id;
          Req.IR = Programs[I % 2];
          Frame = encodeRequest(Req) + "\n";
          break;
        }
        case 2: { // ping
          CompileRequest Req;
          Req.Kind = RequestKind::Ping;
          Req.Id = Id;
          Frame = encodeRequest(Req) + "\n";
          break;
        }
        case 3: // malformed: still owed exactly one (id-less) response
          Frame = "{broken json " + Id + "\n";
          break;
        case 4: { // torn write of a good frame
          CompileRequest Req;
          Req.Id = Id;
          Req.IR = Programs[0];
          Frame = encodeRequest(Req) + "\n";
          size_t Cut = Frame.size() / 2;
          if (!C.send(Frame.substr(0, Cut)) ||
              !C.send(Frame.substr(Cut))) {
            ++Failures;
            return;
          }
          Want.insert(Id);
          continue;
        }
        }
        if (I % 5 != 3)
          Want.insert(Id);
        if (!C.send(Frame)) {
          ++Failures;
          return;
        }
      }
      C.halfClose();
      std::set<std::string> Got;
      unsigned Responses = 0;
      std::string Line;
      std::vector<std::string> IRByProgram[2];
      while (C.readFrame(Line)) {
        Expected<CompileResponse> Res = decodeResponse(Line);
        if (!Res.ok()) {
          ++Failures;
          return;
        }
        ++Responses;
        if (!Res->Id.empty() && !Got.insert(Res->Id).second) {
          ++Failures; // duplicate response for one id
          return;
        }
        if (Res->Status == "ok" && !Res->IR.empty()) {
          size_t R = 0;
          if (sscanf(Res->Id.c_str(), "c%*ur%zu", &R) == 1)
            IRByProgram[(R % 5 == 4) ? 0 : R % 2].push_back(Res->IR);
        }
      }
      if (Responses != PerClient || Got != Want)
        ++Failures;
      // Repeats of a program must transform identically (the cache is
      // invisible on the wire).
      for (const auto &IRs : IRByProgram)
        for (const std::string &IR : IRs)
          if (IR != IRs.front())
            ++Failures;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GE(D.daemon().stats().Accepted, Clients * (PerClient - 3u));
  D.expectAlive();
}

/// The seeded campaign's tallies, shared by its client threads.
struct CampaignCounters {
  std::atomic<size_t> Issued{0};           ///< logical requests
  std::atomic<size_t> Answered{0};         ///< answered exactly once
  std::atomic<size_t> Reissues{0};         ///< extra attempts after drops
  std::atomic<size_t> Busy{0};             ///< busy refusals absorbed
  std::atomic<size_t> InjectedErrors{0};   ///< id-less error frames seen
  std::atomic<size_t> Disconnects{0};      ///< deliberate mid-compile closes
  std::atomic<size_t> IdentityFailures{0}; ///< ok answers unlike the cold one
  std::atomic<size_t> ContractFailures{0}; ///< any other broken invariant
};

/// An ok frame as the cold reference service labels it: per-request
/// cache counts legitimately differ between a cold and a warmed daemon;
/// everything else must match byte for byte.
std::string canonicalFrame(CompileResponse Res) {
  Res.Id = "ref";
  Res.CacheHits = Res.CacheMisses = 0;
  return encodeResponse(Res);
}

/// One logical request of the campaign, retried until answered: injected
/// write faults drop the connection (reconnect and reissue), injected
/// admission faults and real capacity answer busy (back off by the hint,
/// then reissue), and injected decode faults answer an id-less parse
/// error (reissue). False when the attempts run out or a response frame
/// does not parse.
bool campaignCall(const std::string &Path, const std::string &Frame,
                  bool TearWrites, RNG &R, CampaignCounters &K,
                  CompileResponse &Out) {
  for (unsigned Attempt = 0; Attempt < 64; ++Attempt) {
    if (Attempt > 0)
      K.Reissues.fetch_add(1);
    RawClient Conn(Path);
    if (!Conn.connected()) {
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
    std::string Line;
    if (!Sent || !Conn.readFrame(Line))
      continue; // a daemon-side drop beat the send or lost the response
    Expected<CompileResponse> Res = decodeResponse(Line);
    if (!Res)
      return false;
    if (Res->Status == "busy") {
      K.Busy.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::min(extraValue(*Res, "retry_after_ms", 1.0), 20.0)));
      continue;
    }
    if (Res->Status == "error" && Res->Id.empty()) {
      // The injected decode fault: per-frame, not connection-fatal.
      K.InjectedErrors.fetch_add(1);
      continue;
    }
    Out = std::move(*Res);
    return true;
  }
  return false;
}

TEST(Chaos, SeededCampaignAnswersEveryRequestOnceAndByteIdentically) {
  constexpr size_t Requests = 200;
  constexpr uint64_t Seed = 5;
  constexpr unsigned ClientCount = 4;

  // Five unique programs, each with its reference frame from a cold
  // single-threaded service.
  std::vector<std::string> Programs;
  for (uint64_t I = 0; I < 5; ++I)
    Programs.push_back(testProgram(Seed + I));
  auto MakeRequest = [&](size_t U, std::string Id) {
    CompileRequest Req;
    Req.Id = std::move(Id);
    Req.IR = Programs[U];
    return Req;
  };
  CompileService Reference;
  std::vector<std::string> RefFrames;
  for (size_t U = 0; U < Programs.size(); ++U)
    RefFrames.push_back(
        canonicalFrame(Reference.compile(MakeRequest(U, "ref"))));

  ServerOptions SO;
  SO.Threads = 4;
  SO.MaxQueue = 32;
  SO.MaxPipeline = 8;
  SO.WriteTimeoutMs = 5000.0;
  DaemonFixture D(SO);
  const std::string &Path = D.path();

  const char *FaultSites[] = {"serve.frame.decode", "serve.dispatch.enqueue",
                              "serve.cache.insert", "serve.socket.write"};
  CampaignCounters K;
  std::atomic<size_t> NextReq{0};
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T < ClientCount; ++T)
    Clients.emplace_back([&, T] {
      RNG R(Seed * 7919 + T);
      for (;;) {
        size_t N = NextReq.fetch_add(1);
        if (N >= Requests)
          return;
        // Re-arm a serve-layer fault every seventh request, so the abuse
        // lands on a faulted daemon. One site is armed at a time; races
        // between clients only change which request absorbs the fault.
        if (N % 7 == 0)
          fault::arm(FaultSites[(N / 7) % 4], 1 + N % 3);
        K.Issued.fetch_add(1);
        std::string Id = "q" + std::to_string(N);
        size_t U = N % Programs.size();
        CompileResponse Res;
        double Dice = R.nextDouble();
        if (Dice < 0.60) {
          // A good compile, torn writes half the time; audited against
          // the cold reference.
          bool Tear = R.nextDouble() < 0.5;
          if (!campaignCall(Path, encodeRequest(MakeRequest(U, Id)) + "\n",
                            Tear, R, K, Res)) {
            K.ContractFailures.fetch_add(1);
            continue;
          }
          K.Answered.fetch_add(1);
          if (Res.Status != "ok" || canonicalFrame(Res) != RefFrames[U])
            K.IdentityFailures.fetch_add(1);
        } else if (Dice < 0.70) {
          CompileRequest Ping;
          Ping.Kind = RequestKind::Ping;
          Ping.Id = Id;
          if (campaignCall(Path, encodeRequest(Ping) + "\n", false, R, K,
                           Res) &&
              Res.Status == "pong")
            K.Answered.fetch_add(1);
          else
            K.ContractFailures.fetch_add(1);
        } else if (Dice < 0.80) {
          // A malformed frame is owed exactly one id-less parse error.
          RawClient Conn(Path);
          std::string Line;
          if (Conn.connected() && Conn.send("{torn garbage " + Id + "\n") &&
              Conn.readFrame(Line)) {
            Expected<CompileResponse> Err = decodeResponse(Line);
            if (Err && Err->Status == "error")
              K.Answered.fetch_add(1);
            else
              K.ContractFailures.fetch_add(1);
          } else {
            // An injected write fault may drop the connection first; a
            // lost error frame for garbage breaks nothing.
            K.Answered.fetch_add(1);
          }
        } else if (Dice < 0.90) {
          // Vanish mid-compile: no response is owed, and the daemon must
          // bill the drop to this connection and keep serving.
          RawClient Conn(Path);
          if (Conn.connected())
            Conn.sendFrame(MakeRequest(U, Id));
          Conn.hardClose();
          K.Disconnects.fetch_add(1);
          K.Answered.fetch_add(1);
        } else {
          // An expired deadline degrades fail-safe, never hangs.
          CompileRequest Req = MakeRequest(U, Id);
          Req.DeadlineMs = 0.01;
          if (!campaignCall(Path, encodeRequest(Req) + "\n", false, R, K,
                            Res)) {
            K.ContractFailures.fetch_add(1);
            continue;
          }
          K.Answered.fetch_add(1);
          if (Res.CacheHits > 0) {
            // The cache answered: no work a deadline could bound, so the
            // answer is audited like any other ok response.
            if (Res.Status != "ok" || canonicalFrame(Res) != RefFrames[U])
              K.IdentityFailures.fetch_add(1);
          } else if (Res.Status != "ok" || !Res.FellBack ||
                     !hasDiagCode(Res, "deadline-exceeded")) {
            K.ContractFailures.fetch_add(1);
          }
        }
      }
    });
  for (std::thread &T : Clients)
    T.join();
  fault::disarm();

  // The daemon survived the abuse iff it still answers.
  RNG R(1);
  CampaignCounters AfterCampaign;
  CompileRequest Ping;
  Ping.Kind = RequestKind::Ping;
  Ping.Id = "after-campaign";
  CompileResponse Pong;
  ASSERT_TRUE(campaignCall(Path, encodeRequest(Ping) + "\n", false, R,
                           AfterCampaign, Pong));
  EXPECT_EQ(Pong.Status, "pong");

  // A vanished client's response write fails when its compile finishes,
  // which may be after every other client is done.
  uint64_t Dropped = D.daemon().stats().Dropped;
  for (int I = 0; I < 250 && K.Disconnects.load() > 0 && Dropped == 0; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Dropped = D.daemon().stats().Dropped;
  }

  EXPECT_EQ(K.Issued.load(), Requests);
  EXPECT_EQ(K.Answered.load(), K.Issued.load());
  EXPECT_EQ(K.IdentityFailures.load(), 0u);
  EXPECT_EQ(K.ContractFailures.load(), 0u);
  if (K.Disconnects.load() > 0) {
    EXPECT_GT(Dropped, 0u) << K.Disconnects.load() << " disconnect(s)";
  }
  ServerStats S = D.daemon().stats();
  std::printf("chaos campaign: %zu request(s), %zu answered, %zu reissue(s), "
              "%zu busy, %zu injected error(s), %zu disconnect(s); daemon "
              "accepted %llu, shed %llu, dropped %llu\n",
              K.Issued.load(), K.Answered.load(), K.Reissues.load(),
              K.Busy.load(), K.InjectedErrors.load(), K.Disconnects.load(),
              static_cast<unsigned long long>(S.Accepted),
              static_cast<unsigned long long>(S.Shed),
              static_cast<unsigned long long>(S.Dropped));
}

} // namespace
