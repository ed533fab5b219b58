//===- serve/CompileService.h - One compile request, isolated ---*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent core of the cprd daemon: compile() turns one
/// decoded cprd-v1 request into one response, with
///
///  - per-request *failure isolation*: the request runs under a
///    ScopedFatalErrorTrap and the fail-safe pipeline (FailSafe=true), so
///    a malformed program, a non-halting profile run, or an internal
///    fault produces an error response with diagnostics -- never a dead
///    daemon, and never cross-request contamination (every request gets
///    its own DiagnosticEngine and BudgetTrackers);
///
///  - per-request *admission control* via support/Budget.h: the payload
///    size, interpreter step cap and transform budget are clamped to the
///    service ceilings before any work starts, so one hostile request
///    cannot monopolize a worker;
///
///  - *whole-response caching*: all requests share one RegionCache keyed
///    by requestKey, the request frame with its budgets resolved: program
///    text, inputs and every option. A clean response (status ok, no
///    diagnostic, no fallback) is stored whole, and an equal request is
///    answered from it without parsing or compiling, byte-identically.
///
/// compile() is thread-safe: the server calls it concurrently from its
/// ThreadPool workers. See docs/SERVICE.md.
///
//===----------------------------------------------------------------------===//

#ifndef SERVE_COMPILESERVICE_H
#define SERVE_COMPILESERVICE_H

#include "serve/Protocol.h"
#include "serve/RegionCache.h"

#include <atomic>

namespace cpr {
namespace serve {

/// Service-level knobs (the daemon's command line maps onto these).
struct ServiceOptions {
  /// Response cache memory budget in bytes; 0 = unlimited.
  size_t CacheBytes = 64u << 20;
  /// Interpreter step cap applied when a request does not set one.
  uint64_t DefaultInterpMaxSteps = 2000000;
  /// Admission ceiling on the per-request interpreter step cap
  /// (requests asking for more are clamped); 0 = no ceiling.
  uint64_t MaxInterpSteps = 20000000;
  /// Transform budget applied when a request does not set one.
  /// Zero-initialized = unlimited.
  Budget DefaultTransformBudget;
  /// Admission ceiling on the per-request transform step budget; 0 = no
  /// ceiling. (An unlimited request budget stays unlimited only when
  /// this is 0.)
  uint64_t MaxTransformSteps = 0;
  /// Admission cap on the request IR payload; 0 = no cap.
  size_t MaxIRBytes = 4u << 20;
};

/// The response cache's key: the encodeRequest frame of \p Req with the
/// id cleared, no deadline, and the *resolved* budgets (after service
/// defaults and admission clamps) in place of the requested ones. So it
/// holds the program text, its input directives and every wire option as
/// the protocol encodes them, and two requests share an entry only if
/// they are equal in everything that reaches the pipeline. Exposed for
/// tests.
std::string requestKey(const CompileRequest &Req, uint64_t InterpMaxSteps,
                       const Budget &TransformBudget);

/// Transport-independent compile service; one instance per daemon.
class CompileService {
public:
  explicit CompileService(ServiceOptions Opts = ServiceOptions());

  /// Handles one request (Compile, Ping or Stats). Thread-safe. A
  /// compile request that passes admission reports exactly one cache hit
  /// or one miss; an identical request already in flight is waited for
  /// rather than compiled twice.
  ///
  /// The request's relative deadline (Req.DeadlineMs) is anchored to the
  /// steady clock *here* -- queueing time before the call does not count.
  /// \p Cancel, when non-null, is the caller's cooperative cancellation
  /// flag (the server sets it when the requesting connection dies);
  /// expiry and cancellation degrade through the fail-safe pipeline like
  /// budget exhaustion (DiagCode::DeadlineExceeded / DiagCode::Cancelled).
  CompileResponse compile(const CompileRequest &Req,
                          const std::atomic<bool> *Cancel = nullptr);

  /// Shared response-cache counters (for `cmd:"stats"` and the bench).
  RegionCacheStats cacheStats() const { return Cache.stats(); }

  const ServiceOptions &options() const { return Opts; }

private:
  /// Parses, verifies and compiles one request whose budgets admission
  /// has resolved; runs under the caller's fatal-error trap.
  CompileResponse compileLocked(const CompileRequest &Req,
                                uint64_t InterpSteps, const Budget &TB,
                                const Deadline &DL, DiagnosticEngine &Diags,
                                const std::atomic<bool> *Cancel);

  ServiceOptions Opts;
  RegionCache Cache;
};

} // namespace serve
} // namespace cpr

#endif // SERVE_COMPILESERVICE_H
