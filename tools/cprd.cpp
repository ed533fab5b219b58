//===- tools/cprd.cpp - The cprd compile-service daemon -------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// A persistent compile service: accepts cprd-v1 frames (newline-delimited
// JSON; see docs/SERVICE.md) over a Unix-domain socket (--socket=) or the
// stdin/stdout pipe (--stdio), compiles each request through the
// fail-safe pipeline on a shared thread pool, and caches every clean
// response under its request in one LRU shared by all requests.
//
//   cprd --socket=/tmp/cprd.sock --threads=8 --cache-mb=64
//   cprc input.cpr --server=/tmp/cprd.sock
//
// SIGTERM/SIGINT initiate graceful shutdown: the daemon stops accepting
// work, drains every queued compile (each writes its response), then
// exits. In-flight requests are never dropped.
//
// Exit codes (support/Diagnostic.h): 0 clean shutdown, 1 serve-loop
// failure (bind/listen), 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/Diagnostic.h"
#include "support/OptionParser.h"

#include <csignal>
#include <cstdio>

using namespace cpr;
using namespace cpr::serve;

namespace {

struct Config {
  std::string SocketPath;
  bool Stdio = false;
  unsigned Threads = 0;
  unsigned MaxQueue = 256;
  unsigned CacheMB = 64;
  unsigned DefaultInterpMaxSteps = 2000000;
  unsigned MaxInterpSteps = 20000000;
  unsigned DefaultTransformSteps = 0;
  unsigned MaxTransformSteps = 0;
  unsigned MaxIRKB = 4096;
  unsigned MaxPipeline = 0;
  unsigned IdleTimeoutMs = 0;
  unsigned WriteTimeoutMs = 0;
  bool Help = false;
};

OptionTable buildOptions(Config &C) {
  OptionTable T;
  T.addString("--socket", "<path>",
              "serve connections on this Unix-domain socket", C.SocketPath);
  T.addFlag("--stdio",
            "serve frames from stdin, responses to stdout (one client)",
            C.Stdio);
  T.addUnsigned("--threads", "<n>",
                "compile worker threads (0 = one per hardware thread)",
                C.Threads);
  T.addUnsigned("--max-queue", "<n>",
                "requests queued-or-running before refusing with status "
                "\"busy\" (0 = unbounded)",
                C.MaxQueue);
  T.addUnsigned("--cache-mb", "<n>",
                "response-cache memory budget in MiB (0 = unlimited)",
                C.CacheMB);
  T.addUnsigned("--interp-max-steps", "<n>",
                "interpreter step cap for requests that set none",
                C.DefaultInterpMaxSteps);
  T.addUnsigned("--max-interp-steps", "<n>",
                "admission ceiling on per-request interpreter step caps "
                "(0 = no ceiling)",
                C.MaxInterpSteps);
  T.addUnsigned("--transform-steps", "<n>",
                "transform step budget for requests that set none "
                "(0 = unlimited)",
                C.DefaultTransformSteps);
  T.addUnsigned("--max-transform-steps", "<n>",
                "admission ceiling on per-request transform budgets "
                "(0 = no ceiling)",
                C.MaxTransformSteps);
  T.addUnsigned("--max-ir-kb", "<n>",
                "admission cap on the request IR payload in KiB "
                "(0 = no cap)",
                C.MaxIRKB);
  T.addUnsigned("--max-pipeline", "<n>",
                "per-connection cap on pipelined in-flight requests "
                "(0 = unbounded)",
                C.MaxPipeline);
  T.addUnsigned("--idle-timeout-ms", "<n>",
                "drop a connection when no complete frame arrives for "
                "this long (0 = never)",
                C.IdleTimeoutMs);
  T.addUnsigned("--write-timeout-ms", "<n>",
                "drop a connection whose reader blocks a response write "
                "this long (0 = never)",
                C.WriteTimeoutMs);
  T.addFlag("--help", "print this help", C.Help);
  T.addFlag("-h", "print this help", C.Help);
  return T;
}

// The signal handler needs the server; requestStop() is an atomic store,
// so this is async-signal-safe.
Server *ActiveServer = nullptr;

void onShutdownSignal(int) {
  if (ActiveServer)
    ActiveServer->requestStop();
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  OptionTable Options = buildOptions(C);
  const std::string Usage = "usage: cprd (--socket=<path> | --stdio) "
                            "[options]";

  std::string ParseError;
  std::vector<std::string> Positional;
  if (!Options.parse(argc, argv, ParseError, &Positional) ||
      !Positional.empty()) {
    if (!ParseError.empty())
      std::fprintf(stderr, "cprd: %s\n", ParseError.c_str());
    std::fprintf(stderr, "%s", Options.help(Usage).c_str());
    return exit_codes::UsageError;
  }
  if (C.Help) {
    std::printf("%s", Options.help(Usage).c_str());
    return exit_codes::Success;
  }
  if (C.Stdio != C.SocketPath.empty()) {
    // Exactly one transport: --stdio or --socket=, not both, not neither.
    std::fprintf(stderr, "cprd: pick one transport\n%s",
                 Options.help(Usage).c_str());
    return exit_codes::UsageError;
  }

  ServerOptions SO;
  SO.SocketPath = C.SocketPath;
  SO.Threads = C.Threads;
  SO.MaxQueue = C.MaxQueue;
  SO.Service.CacheBytes = static_cast<size_t>(C.CacheMB) << 20;
  SO.Service.DefaultInterpMaxSteps = C.DefaultInterpMaxSteps;
  SO.Service.MaxInterpSteps = C.MaxInterpSteps;
  SO.Service.DefaultTransformBudget.MaxSteps = C.DefaultTransformSteps;
  SO.Service.MaxTransformSteps = C.MaxTransformSteps;
  SO.Service.MaxIRBytes = static_cast<size_t>(C.MaxIRKB) << 10;
  SO.MaxPipeline = C.MaxPipeline;
  SO.IdleTimeoutMs = C.IdleTimeoutMs;
  SO.WriteTimeoutMs = C.WriteTimeoutMs;

  Server Daemon(SO);
  ActiveServer = &Daemon;
  std::signal(SIGTERM, onShutdownSignal);
  std::signal(SIGINT, onShutdownSignal);
  // A client vanishing mid-response must not kill the daemon; the write
  // error is handled at the connection.
  std::signal(SIGPIPE, SIG_IGN);

  int RC;
  if (C.Stdio) {
    RC = Daemon.runStdio();
  } else {
    std::fprintf(stderr, "cprd: serving on %s\n", C.SocketPath.c_str());
    RC = Daemon.runSocket();
  }
  ActiveServer = nullptr;
  return RC;
}
