//===- serve/Protocol.h - The cprd-v1 wire protocol -------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cprd-v1` protocol: newline-delimited JSON frames between a client
/// and the cprd compile daemon (docs/SERVICE.md has the full spec). One
/// request frame:
///
/// \code
/// {"proto":"cprd-v1","id":"r1","ir":"; cpr-fuzz-program-v1\n...",
///  "options":{"exit_weight":0.2,"interp_max_steps":200000,...}}
/// \endcode
///
/// and one response frame per request, correlated by "id" (responses may
/// arrive out of request order -- the daemon compiles concurrently):
///
/// \code
/// {"proto":"cprd-v1","id":"r1","status":"ok","ir":"func @f {...}",
///  "cpr":{...},"cache":{"hits":0,"misses":1},"diagnostics":[...]}
/// \endcode
///
/// Requests cross a trust boundary, so decoding is strict: the JSON
/// parser already rejects duplicate keys and unterminated strings
/// (support/JSON.h), and decodeRequest() additionally rejects unknown
/// fields, wrong types and integer options that do not fit their field
/// (negative, fractional or too large) -- every failure is a recoverable
/// Diagnostic, never a fatal error. Response decoding is deliberately
/// lenient about unknown fields so newer daemons can extend frames
/// without breaking older clients.
///
//===----------------------------------------------------------------------===//

#ifndef SERVE_PROTOCOL_H
#define SERVE_PROTOCOL_H

#include "cpr/ControlCPR.h"
#include "cpr/CPROptions.h"
#include "support/Budget.h"
#include "support/Diagnostic.h"

#include <string>
#include <vector>

namespace cpr {
namespace serve {

/// Protocol magic; every frame carries {"proto":"cprd-v1"}.
inline constexpr const char *ProtocolName = "cprd-v1";

/// What the client asks for.
enum class RequestKind {
  Compile, ///< compile "ir" (the default when "cmd" is absent)
  Ping,    ///< liveness probe; answered with status "pong"
  Stats,   ///< server/cache counter snapshot
};

/// One decoded request frame.
struct CompileRequest {
  RequestKind Kind = RequestKind::Compile;
  std::string Id; ///< client correlation id, echoed verbatim
  /// The program: fuzz-program-v1 text (IR plus `; reg`/`; mem` input
  /// directives) or plain IR (empty inputs).
  std::string IR;
  CPROptions CPR;
  unsigned UnrollFactor = 1;
  bool Lint = false;
  bool RegionEquivalence = false;
  /// Interpreter step cap for the profiling runs; 0 takes the service
  /// default, and the service clamps to its admission ceiling either way.
  uint64_t InterpMaxSteps = 0;
  /// Transform budget; zero-initialized takes the service default.
  Budget TransformBudget;
  /// Whole-request deadline in milliseconds, relative to the moment the
  /// *service* decodes the frame (never an absolute time -- clocks don't
  /// cross the wire); 0 means none. An expiring request degrades like
  /// budget exhaustion: fail-safe fallback plus a `deadline-exceeded`
  /// diagnostic. Deliberately excluded from the cache key -- it
  /// is wall-clock-dependent, a compile it truncates carries a diagnostic
  /// and is never cached, and a cache hit does no work it could bound.
  double DeadlineMs = 0.0;
};

/// One diagnostic as it crosses the wire (names, not enums, so clients
/// need no enum tables).
struct WireDiagnostic {
  std::string Severity; ///< "remark" | "warning" | "error" | "fatal"
  std::string Code;     ///< diagCodeName(), e.g. "parse-error"
  std::string Message;
  std::string Site;
};

/// One response frame.
struct CompileResponse {
  std::string Id;
  /// "ok" | "error" | "busy" (admission refused) | "pong" | "stats".
  std::string Status;
  /// Treated function + inputs in fuzz-program-v1 text (status "ok").
  std::string IR;
  bool FellBack = false;
  CPRResult CPR; ///< transform counters (status "ok")
  /// Response-cache outcome: 1 hit or 1 miss for a compile request that
  /// passed admission, 0/0 otherwise.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  std::vector<WireDiagnostic> Diagnostics;
  /// Service-side wall time. In-process only -- encodeResponse omits it
  /// so a response frame is a pure function of the request (cached and
  /// cold compiles are byte-identical on the wire).
  double WallMs = 0.0;
  /// Extra payload for status "stats" (server-defined key/number pairs).
  std::vector<std::pair<std::string, double>> Extra;

  bool ok() const { return Status == "ok"; }
};

/// Renders one request frame (a single line, no trailing newline).
std::string encodeRequest(const CompileRequest &Req);

/// Parses and validates one request frame. Failures carry
/// DiagCode::ParseError (malformed JSON / wrong types / unknown fields)
/// with Site "cprd.frame".
Expected<CompileRequest> decodeRequest(const std::string &Line);

/// Renders one response frame (a single line, no trailing newline).
std::string encodeResponse(const CompileResponse &Res);

/// Parses one response frame (lenient about unknown fields).
Expected<CompileResponse> decodeResponse(const std::string &Line);

/// Builds an error response carrying \p D (echoing \p Id).
CompileResponse errorResponse(std::string Id, const Diagnostic &D);

/// "compile, ping, stats" -- the registered `cmd` values, for the
/// unknown-command diagnostic (mirrors the predictor registry's
/// unknown-name message so clients see what *is* supported).
std::string requestCommandList();

/// Converts an engine diagnostic to its wire form.
WireDiagnostic toWire(const Diagnostic &D);

} // namespace serve
} // namespace cpr

#endif // SERVE_PROTOCOL_H
