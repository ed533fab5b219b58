//===- serve/Server.cpp - The cprd daemon's transport loop -----------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "support/Deadline.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cpr;
using namespace cpr::serve;

/// One client connection: the descriptor plus the write lock that keeps
/// concurrently finishing tasks from interleaving their frames. Tasks
/// hold the Connection via shared_ptr, so the descriptor stays open until
/// the last response is written.
struct Server::Connection {
  int FD;
  bool OwnsFD;
  std::mutex WriteMu;
  /// Set once a response write fails or the connection times out: the
  /// reader stops, further writes are skipped, and in-flight compiles
  /// observe it as their cancel flag (CompileService::compile).
  std::atomic<bool> Gone{false};
  /// Requests dispatched on this connection and not yet answered
  /// (the MaxPipeline admission cap).
  std::atomic<size_t> InFlight{0};

  Connection(int FD, bool OwnsFD) : FD(FD), OwnsFD(OwnsFD) {}
  ~Connection() {
    if (OwnsFD && FD >= 0)
      ::close(FD);
  }

  bool writeLine(const std::string &Frame) {
    std::lock_guard<std::mutex> Lock(WriteMu);
    if (Gone.load(std::memory_order_relaxed))
      return false;
    // Injected write failure: behave exactly as if the peer vanished
    // (EPIPE) -- the frame is dropped and the connection is torn down
    // through the same dropConnection path.
    if (fault::shouldFail("serve.socket.write"))
      return false;
    return writeAll(FD, Frame + "\n");
  }
};

Server::Server(ServerOptions Opts)
    : Opts(std::move(Opts)), Service(this->Opts.Service) {}

Server::~Server() = default;

namespace {

/// Waits until \p FD is readable, polling \p Stop (and \p Gone when
/// non-null) every slice. Returns false when stopped, gone, on a poll
/// error, or -- with an active deadline -- once \p Idle expires.
bool waitReadable(int FD, const std::atomic<bool> &Stop,
                  const std::atomic<bool> *Gone, const Deadline &Idle,
                  bool &TimedOut) {
  for (;;) {
    if (Stop.load() || (Gone && Gone->load()))
      return false;
    int Slice = 200;
    if (Idle.active()) {
      double Rem = Idle.remainingMs();
      if (Rem <= 0.0) {
        TimedOut = true;
        return false;
      }
      if (Rem < Slice)
        Slice = static_cast<int>(Rem) + 1;
    }
    pollfd P;
    P.fd = FD;
    P.events = POLLIN;
    P.revents = 0;
    int R = ::poll(&P, 1, Slice);
    if (R > 0)
      return true;
    if (R < 0 && errno != EINTR)
      return false;
  }
}

void setNonBlocking(int FD) {
  int Flags = ::fcntl(FD, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(FD, F_SETFL, Flags | O_NONBLOCK);
}

} // namespace

ServerStats Server::stats() const {
  ServerStats S;
  S.Accepted = Accepted.load();
  S.Shed = Shed.load();
  S.Dropped = Dropped.load();
  size_t P = Pending.load(), R = Running.load();
  S.InFlight = R;
  S.QueueDepth = P > R ? P - R : 0;
  return S;
}

CompileResponse Server::shedResponse(std::string Id, std::string Why) {
  ++Shed;
  CompileResponse Res;
  Res.Id = std::move(Id);
  Res.Status = "busy";
  WireDiagnostic W;
  W.Severity = "warning";
  W.Code = diagCodeName(DiagCode::BudgetExhausted);
  W.Message = std::move(Why);
  W.Site = "cprd.admission";
  Res.Diagnostics.push_back(std::move(W));
  // Backoff hint, linear in how oversubscribed the queue is: an idle
  // daemon says "come right back", a saturated one spreads retries out.
  // Deterministic in the observed depth (no randomness server-side; the
  // client adds its own seeded jitter).
  double Depth = static_cast<double>(Pending.load());
  double Cap = static_cast<double>(Opts.MaxQueue != 0 ? Opts.MaxQueue : 1);
  double Ms = 10.0 + 90.0 * (Depth / Cap);
  Res.Extra.emplace_back("retry_after_ms", Ms > 2000.0 ? 2000.0 : Ms);
  return Res;
}

void Server::dropConnection(const std::shared_ptr<Connection> &Conn,
                            const char *Why) {
  if (Conn->Gone.exchange(true))
    return; // already counted
  ++Dropped;
  std::fprintf(stderr, "cprd: connection dropped (%s), %zu request(s) in flight\n",
               Why, Conn->InFlight.load());
}

void Server::augmentStats(CompileResponse &Res) {
  ServerStats S = stats();
  Res.Extra.emplace_back("queue_depth", static_cast<double>(S.QueueDepth));
  Res.Extra.emplace_back("in_flight", static_cast<double>(S.InFlight));
  Res.Extra.emplace_back("accepted", static_cast<double>(S.Accepted));
  Res.Extra.emplace_back("shed", static_cast<double>(S.Shed));
  Res.Extra.emplace_back("connections_dropped",
                         static_cast<double>(S.Dropped));
  Res.Extra.emplace_back("max_queue", static_cast<double>(Opts.MaxQueue));
  std::lock_guard<std::mutex> Lock(CountMu);
  for (const auto &KV : ResponseCounts)
    Res.Extra.emplace_back(KV.first, static_cast<double>(KV.second));
}

void Server::writeResponse(const std::shared_ptr<Connection> &Conn,
                           const CompileResponse &Res) {
  {
    std::lock_guard<std::mutex> Lock(CountMu);
    ++ResponseCounts["responses/" + Res.Status];
    for (const WireDiagnostic &W : Res.Diagnostics)
      ++ResponseCounts["diag/" + W.Code];
  }
  if (!Conn->writeLine(encodeResponse(Res)))
    dropConnection(Conn, "response write failed");
}

void Server::handleLine(const std::shared_ptr<Connection> &Conn,
                        std::string Line) {
  // Tolerate blank lines between frames (e.g. hand-typed stdio input).
  if (Line.find_first_not_of(" \t\r") == std::string::npos)
    return;
  // Injected decode failure: a well-formed frame is reported exactly like
  // a malformed one -- clients must treat parse errors as per-frame, not
  // connection-fatal.
  if (fault::shouldFail("serve.frame.decode")) {
    Diagnostic D;
    D.Severity = DiagSeverity::Error;
    D.Code = DiagCode::ParseError;
    D.Message = "injected frame-decode fault";
    D.Site = "cprd.frame";
    writeResponse(Conn, errorResponse("", D));
    return;
  }
  Expected<CompileRequest> Req = decodeRequest(Line);
  if (!Req) {
    // Malformed frame: a clean protocol-level error response with no id
    // to correlate -- the client sees exactly what was wrong.
    writeResponse(Conn, errorResponse("", Req.diagnostic()));
    return;
  }
  if (StopFlag.load()) {
    writeResponse(Conn, shedResponse(Req->Id, "server is shutting down"));
    return;
  }
  if (Opts.MaxQueue != 0 && Pending.load() >= Opts.MaxQueue) {
    writeResponse(Conn, shedResponse(
        Req->Id, "server at capacity (" + std::to_string(Opts.MaxQueue) +
                     " requests queued or running)"));
    return;
  }
  if (Opts.MaxPipeline != 0 && Conn->InFlight.load() >= Opts.MaxPipeline) {
    writeResponse(Conn, shedResponse(
        Req->Id, "connection pipeline cap (" +
                     std::to_string(Opts.MaxPipeline) +
                     " requests in flight) reached"));
    return;
  }
  // Injected admission failure: shed a request the queue had room for.
  if (fault::shouldFail("serve.dispatch.enqueue")) {
    writeResponse(Conn, shedResponse(Req->Id, "injected admission fault"));
    return;
  }
  ++Accepted;
  ++Pending;
  ++Conn->InFlight;
  Pool->submit([this, Conn, R = Req.takeValue()] {
    ++Running;
    // compile() already traps per-request faults; the belt-and-braces
    // catch keeps an unexpected exception from leaking Pending or the
    // response.
    CompileResponse Res;
    try {
      // The connection's Gone flag doubles as the request's cancel flag:
      // compiles for a vanished client degrade at the next stage
      // boundary instead of running to completion.
      Res = Service.compile(R, &Conn->Gone);
    } catch (const std::exception &E) {
      Diagnostic D;
      D.Severity = DiagSeverity::Error;
      D.Code = DiagCode::Internal;
      D.Message = std::string("unhandled exception: ") + E.what();
      D.Site = "cprd.request";
      Res = errorResponse(R.Id, D);
    }
    if (R.Kind == RequestKind::Stats)
      augmentStats(Res);
    // Free the admission slots before the response leaves: a client that
    // has read its answer may send the next request at once, and must not
    // be refused busy on account of the request it just saw complete.
    --Running;
    --Pending;
    --Conn->InFlight;
    writeResponse(Conn, Res);
  });
}

void Server::serveConnection(const std::shared_ptr<Connection> &Conn,
                             int ReadFD) {
  // Non-blocking reads: next() never parks the thread, so the idle
  // deadline is enforced even against a peer that sends half a frame and
  // stalls (the slowloris case).
  setNonBlocking(ReadFD);
  LineReader Reader(ReadFD, Opts.MaxFrameBytes);
  std::string Line;
  auto freshIdle = [this] {
    return Opts.IdleTimeoutMs > 0.0 ? Deadline::afterMs(Opts.IdleTimeoutMs)
                                    : Deadline::never();
  };
  Deadline Idle = freshIdle();
  for (;;) {
    if (StopFlag.load() || Conn->Gone.load())
      return;
    switch (Reader.next(Line)) {
    case LineReader::Result::Frame:
      handleLine(Conn, std::move(Line));
      Idle = freshIdle(); // the clock measures gaps between frames
      continue;
    case LineReader::Result::Eof:
      return;
    case LineReader::Result::Error: {
      // Oversized frame or read failure: one protocol-level error
      // response, then the connection ends (the byte stream is no
      // longer frame-aligned, so parsing cannot resume).
      Diagnostic D;
      D.Severity = DiagSeverity::Error;
      D.Code = DiagCode::ParseError;
      D.Message = "frame rejected: " + Reader.error();
      D.Site = "cprd.frame";
      writeResponse(Conn, errorResponse("", D));
      return;
    }
    case LineReader::Result::NeedMore: {
      bool TimedOut = false;
      if (!waitReadable(ReadFD, StopFlag, &Conn->Gone, Idle, TimedOut)) {
        if (TimedOut && Conn->InFlight.load() != 0) {
          // Not idle abuse: the client is quietly waiting for responses
          // it is owed. Restart the window and keep listening.
          Idle = freshIdle();
          continue;
        }
        if (TimedOut) {
          // Best-effort notice, then tear down: a slowloris never ties
          // up the reader or the buffer past the idle window.
          Diagnostic D;
          D.Severity = DiagSeverity::Error;
          D.Code = DiagCode::DeadlineExceeded;
          D.Message = "connection idle timeout (" +
                      std::to_string(Opts.IdleTimeoutMs) + " ms)";
          D.Site = "cprd.connection";
          writeResponse(Conn, errorResponse("", D));
          dropConnection(Conn, "idle timeout");
        }
        return;
      }
      continue;
    }
    }
  }
}

int Server::runStdio() {
  Pool = std::make_unique<ThreadPool>(Opts.Threads);
  auto Conn = std::make_shared<Connection>(STDOUT_FILENO, /*OwnsFD=*/false);
  serveConnection(Conn, STDIN_FILENO);
  // EOF or stop: drain every queued request; each writes its response.
  Pool->stop();
  return exit_codes::Success;
}

int Server::runSocket() {
  int ListenFD = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFD < 0)
    return exit_codes::Failure;
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    ::close(ListenFD);
    return exit_codes::UsageError;
  }
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);
  ::unlink(Opts.SocketPath.c_str()); // replace a stale socket file
  if (::bind(ListenFD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFD, 64) < 0) {
    ::close(ListenFD);
    return exit_codes::Failure;
  }

  Pool = std::make_unique<ThreadPool>(Opts.Threads);
  std::vector<std::thread> Readers;
  std::mutex ConnMu;
  std::vector<std::weak_ptr<Connection>> Conns;

  while (!StopFlag.load()) {
    bool TimedOut = false;
    if (!waitReadable(ListenFD, StopFlag, nullptr, Deadline::never(),
                      TimedOut))
      break;
    int CFd = ::accept(ListenFD, nullptr, nullptr);
    if (CFd < 0)
      continue;
    // Bound slow readers: a response write blocked past the timeout
    // fails with EAGAIN, and writeAll treats that as the peer vanishing.
    if (Opts.WriteTimeoutMs > 0.0) {
      timeval TV;
      TV.tv_sec = static_cast<time_t>(Opts.WriteTimeoutMs / 1000.0);
      TV.tv_usec = static_cast<suseconds_t>(
          (Opts.WriteTimeoutMs - static_cast<double>(TV.tv_sec) * 1000.0) *
          1000.0);
      ::setsockopt(CFd, SOL_SOCKET, SO_SNDTIMEO, &TV, sizeof(TV));
    }
    auto Conn = std::make_shared<Connection>(CFd, /*OwnsFD=*/true);
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      Conns.push_back(Conn);
    }
    Readers.emplace_back(
        [this, Conn, CFd] { serveConnection(Conn, CFd); });
  }

  // Graceful drain: no new connections, no new frames (SHUT_RD wakes the
  // readers with EOF), then let every queued compile finish and write its
  // response before the descriptors close.
  ::close(ListenFD);
  ::unlink(Opts.SocketPath.c_str());
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (const std::weak_ptr<Connection> &W : Conns)
      if (std::shared_ptr<Connection> C = W.lock())
        ::shutdown(C->FD, SHUT_RD);
  }
  for (std::thread &T : Readers)
    T.join();
  Pool->stop();
  return exit_codes::Success;
}
