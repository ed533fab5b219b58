//===- tests/serve/CompileServiceTest.cpp - service-level tests ------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The service's two load-bearing guarantees:
//
//  1. Byte-identity: a request answered from the response cache produces
//     the same response frame as a cold compile of the same request --
//     modulo the "cache" telemetry section, which is how a hit is
//     observed at all (docs/SERVICE.md). Verified over the built-in
//     kernels and the committed fuzz regression corpus. Each compile
//     reports exactly one hit or one miss, only clean responses are
//     cached, and every claim is released.
//
//  2. Failure isolation: malformed programs, verifier rejects and
//     oversized payloads produce error responses with diagnostics and
//     leave the service fully usable.
//
//===----------------------------------------------------------------------===//

#include "serve/CompileService.h"

#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "support/FaultInjector.h"
#include "workloads/Kernels.h"

#include "gtest/gtest.h"

#include <functional>
#include <thread>

using namespace cpr;
using namespace cpr::serve;

namespace {

CompileRequest requestFor(std::string IR, std::string Id = "r") {
  CompileRequest Req;
  Req.Id = std::move(Id);
  Req.IR = std::move(IR);
  return Req;
}

/// The response frame with the cache telemetry normalized away -- the
/// identity the service guarantees between cold and cached compiles.
std::string canonicalFrame(CompileResponse Res, const std::string &Id) {
  Res.Id = Id;
  Res.CacheHits = 0;
  Res.CacheMisses = 0;
  return encodeResponse(Res);
}

/// The value of one `cmd:"stats"` counter.
double statsValue(CompileService &Service, const std::string &Name) {
  CompileRequest Stats;
  Stats.Kind = RequestKind::Stats;
  for (const auto &KV : Service.compile(Stats).Extra)
    if (KV.first == Name)
      return KV.second;
  ADD_FAILURE() << "no stats counter " << Name;
  return -1;
}

void expectColdVsCachedIdentical(const std::string &IR,
                                 const std::string &Label) {
  CompileService Service;
  CompileResponse Cold = Service.compile(requestFor(IR, "cold"));
  CompileResponse Warm = Service.compile(requestFor(IR, "warm"));

  ASSERT_TRUE(Cold.ok()) << Label << ": " << Cold.Status;
  EXPECT_EQ(canonicalFrame(Cold, "x"), canonicalFrame(Warm, "x"))
      << Label << ": cached response differs from cold compile";
  EXPECT_EQ(Cold.CacheMisses, 1u) << Label;
  EXPECT_EQ(Cold.CacheHits, 0u) << Label;
  EXPECT_EQ(Warm.CacheHits, 1u) << Label;
  EXPECT_EQ(Warm.CacheMisses, 0u) << Label;
  EXPECT_EQ(Warm.Id, "warm") << Label;
}

TEST(CompileService, PingAndStats) {
  CompileService Service;
  CompileRequest Ping;
  Ping.Kind = RequestKind::Ping;
  Ping.Id = "p";
  EXPECT_EQ(Service.compile(Ping).Status, "pong");

  CompileRequest Stats;
  Stats.Kind = RequestKind::Stats;
  Stats.Id = "s";
  CompileResponse Res = Service.compile(Stats);
  EXPECT_EQ(Res.Status, "stats");
  bool SawHits = false;
  for (const auto &KV : Res.Extra)
    if (KV.first == "cache_hits")
      SawHits = true;
  EXPECT_TRUE(SawHits);
}

TEST(CompileService, KernelCompilesAndCaches) {
  CompileService Service;
  std::string IR = serializeFuzzProgram(buildStrcpyKernel(4, 512, 1));

  CompileResponse Cold = Service.compile(requestFor(IR, "c"));
  ASSERT_TRUE(Cold.ok()) << Cold.Status;
  EXPECT_GT(Cold.CPR.RegionsProcessed, 0u);
  EXPECT_EQ(Cold.CacheMisses, 1u);
  EXPECT_EQ(Cold.CacheHits, 0u);
  EXPECT_FALSE(Cold.IR.empty());

  CompileResponse Warm = Service.compile(requestFor(IR, "w"));
  ASSERT_TRUE(Warm.ok());
  EXPECT_EQ(Warm.CacheMisses, 0u); // answered whole from the cache
  EXPECT_EQ(Warm.CacheHits, 1u);
  EXPECT_EQ(canonicalFrame(Cold, "x"), canonicalFrame(Warm, "x"));
  EXPECT_EQ(statsValue(Service, "cache_entries"), 1.0);
}

TEST(CompileService, ColdVsCachedOverBuiltinKernels) {
  expectColdVsCachedIdentical(
      serializeFuzzProgram(buildStrcpyKernel(4, 512, 1)), "strcpy");
  expectColdVsCachedIdentical(
      serializeFuzzProgram(buildCmpKernel(4, 512, 480, 2)), "cmp");
  expectColdVsCachedIdentical(
      serializeFuzzProgram(buildGrepKernel(4, 512, 0.02, 3)), "grep");
  expectColdVsCachedIdentical(
      serializeFuzzProgram(buildWcKernel(4, 512, 4)), "wc");
}

TEST(CompileService, ColdVsCachedOverGeneratedPrograms) {
  GeneratorConfig GC;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed)
    expectColdVsCachedIdentical(
        serializeFuzzProgram(generateProgram(Seed, GC)),
        "seed " + std::to_string(Seed));
}

TEST(CompileService, ColdVsCachedOverRegressionCorpus) {
  std::vector<std::string> Files =
      listCorpusFiles(CPR_SERVE_REGRESSION_DIR);
  ASSERT_FALSE(Files.empty());
  for (const std::string &Path : Files) {
    FuzzParseResult FP = loadFuzzProgramFile(Path);
    ASSERT_TRUE(FP) << Path << ": " << FP.Error;
    expectColdVsCachedIdentical(serializeFuzzProgram(FP.Program), Path);
  }
}

/// A response carrying any diagnostic is never cached: the request
/// compiles afresh on every send and still answers byte-identically.
TEST(CompileService, UncleanResponseIsNeverCached) {
  FuzzParseResult FP = loadFuzzProgramFile(
      std::string(CPR_SERVE_REGRESSION_DIR) + "/inject-compskip-default-1.ir");
  ASSERT_TRUE(FP) << FP.Error;
  CompileRequest Req = requestFor(serializeFuzzProgram(FP.Program));
  Req.TransformBudget.MaxSteps = 1; // too small: budget-exhausted warning

  CompileService Service;
  std::string First;
  for (unsigned Send = 0; Send < 3; ++Send) {
    CompileResponse Res = Service.compile(Req);
    ASSERT_TRUE(Res.ok()) << Res.Status;
    bool SawBudget = false;
    for (const WireDiagnostic &D : Res.Diagnostics)
      SawBudget = SawBudget || D.Code == "budget-exhausted";
    EXPECT_TRUE(SawBudget) << "send " << Send;
    EXPECT_EQ(Res.CacheMisses, 1u) << "send " << Send;
    EXPECT_EQ(Res.CacheHits, 0u) << "send " << Send;
    EXPECT_EQ(statsValue(Service, "cache_entries"), 0.0) << "send " << Send;
    if (Send == 0)
      First = canonicalFrame(Res, "x");
    else
      EXPECT_EQ(canonicalFrame(Res, "x"), First) << "send " << Send;
  }
  RegionCacheStats S = Service.cacheStats();
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(S.Hits, 0u);
}

/// An insert the serve.cache.insert fault drops leaves no trace in what
/// any later request receives: the dropped miss, the miss that then
/// commits and the hit after it all answer a cold service's bytes.
TEST(CompileService, FaultedCacheInsertKeepsEveryResponseIntact) {
  std::string IR = serializeFuzzProgram(buildStrcpyKernel(4, 512, 1));
  CompileResponse Cold = CompileService().compile(requestFor(IR, "cold"));
  ASSERT_TRUE(Cold.ok()) << Cold.Status;
  const std::string Want = canonicalFrame(Cold, "x");

  CompileService Service;
  std::vector<CompileResponse> Got;
  {
    fault::ScopedFault Armed("serve.cache.insert", 1); // the first commit
    for (unsigned Send = 0; Send < 3; ++Send)
      Got.push_back(Service.compile(requestFor(IR, std::to_string(Send))));
    EXPECT_TRUE(fault::fired());
  }
  for (unsigned Send = 0; Send < 3; ++Send) {
    ASSERT_TRUE(Got[Send].ok()) << "send " << Send;
    EXPECT_EQ(canonicalFrame(Got[Send], "x"), Want) << "send " << Send;
    EXPECT_EQ(Got[Send].CacheHits, Send == 2 ? 1u : 0u) << "send " << Send;
  }
  RegionCacheStats S = Service.cacheStats();
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(CompileService, ParseErrorIsIsolated) {
  CompileService Service;
  // Sent twice and answered twice: the error response released its cache
  // claim (the second send would otherwise wait on it forever).
  for (unsigned Send = 0; Send < 2; ++Send) {
    CompileResponse Res = Service.compile(requestFor("func @broken {", "b"));
    EXPECT_EQ(Res.Status, "error") << "send " << Send;
    ASSERT_FALSE(Res.Diagnostics.empty());
    EXPECT_EQ(Res.Diagnostics[0].Code, "parse-error");
    EXPECT_EQ(Res.CacheMisses, 1u) << "send " << Send;
  }
  EXPECT_EQ(Service.cacheStats().Misses, 2u);
  EXPECT_EQ(Service.cacheStats().Entries, 0u);

  // The service survives and still compiles.
  std::string IR = serializeFuzzProgram(buildWcKernel(4, 256, 4));
  EXPECT_TRUE(Service.compile(requestFor(IR, "ok")).ok());
}

TEST(CompileService, OutOfRangeRegisterIsAParseError) {
  CompileService Service;
  // The invalid-register sentinel as a register name, in the IR and in a
  // reg directive: each is refused before anything runs.
  for (const char *IR :
       {"func @x {\nblock @A:\n  r4294967295 = add(r1, 7)\n  halt\n}\n",
        "; reg r4294967295=5\nfunc @x {\nblock @A:\n  halt\n}\n"}) {
    CompileResponse Res = Service.compile(requestFor(IR, "big"));
    EXPECT_EQ(Res.Status, "error") << IR;
    ASSERT_FALSE(Res.Diagnostics.empty()) << IR;
    EXPECT_EQ(Res.Diagnostics[0].Code, "parse-error") << IR;
    EXPECT_NE(Res.Diagnostics[0].Message.find("r4294967295"),
              std::string::npos)
        << Res.Diagnostics[0].Message;
  }

  // The service survives and still compiles.
  std::string IR = serializeFuzzProgram(buildWcKernel(4, 256, 4));
  EXPECT_TRUE(Service.compile(requestFor(IR, "ok")).ok());
}

TEST(CompileService, VerifierRejectIsIsolated) {
  CompileService Service;
  // Each parses, but the verifier rejects it: a GPR moved into a float
  // register (same shape as tests/fixtures/verify_error.ir), and a write
  // of the hardwired true predicate, which the interpreter would abort on.
  for (const char *IR :
       {"func @bad {\nblock @A:\n  f1 = mov(r1)\n  halt\n}\n",
        "func @bad {\nblock @A:\n  p0 = mov(1)\n  halt\n}\n"}) {
    CompileResponse Res = Service.compile(requestFor(IR, "v"));
    EXPECT_EQ(Res.Status, "error") << IR;
    ASSERT_FALSE(Res.Diagnostics.empty()) << IR;
    EXPECT_EQ(Res.Diagnostics[0].Code, "verify-failed") << IR;
  }
}

TEST(CompileService, MinDividedByMinusOneIsAnsweredAndTheServiceLives) {
  // INT64_MIN / -1 and INT64_MIN % -1, both in the profiled run (r1 = -1)
  // and as a constant fold: the request is answered and the next ping is.
  CompileService Service;
  const char *IR = "; reg r1=-1\n"
                   "func @f {\n"
                   "  observable r3, r4, r5\n"
                   "block @A:\n"
                   "  r2 = shl(1, 63)\n"
                   "  r3 = div(r2, r1)\n"
                   "  r4 = rem(r2, r1)\n"
                   "  r5 = div(r2, -1)\n"
                   "  halt\n"
                   "}\n";
  CompileRequest Req = requestFor(IR, "min");
  Req.UnrollFactor = 2; // runs Simplify over the region
  CompileResponse Res = Service.compile(Req);
  EXPECT_TRUE(Res.ok()) << Res.Status;
  EXPECT_EQ(Res.Id, "min");
  CompileRequest Ping;
  Ping.Kind = RequestKind::Ping;
  Ping.Id = "p";
  EXPECT_EQ(Service.compile(Ping).Status, "pong");
}

TEST(CompileService, PayloadCapRefusesAdmission) {
  ServiceOptions SO;
  SO.MaxIRBytes = 16;
  CompileService Service(SO);
  CompileResponse Res = Service.compile(
      requestFor(serializeFuzzProgram(buildWcKernel(4, 256, 4)), "big"));
  EXPECT_EQ(Res.Status, "error");
  ASSERT_FALSE(Res.Diagnostics.empty());
  EXPECT_EQ(Res.Diagnostics[0].Code, "budget-exhausted");
  EXPECT_EQ(Res.Diagnostics[0].Site, "cprd.admission");
}

/// requestKey is the response cache's only key, so every request field
/// that reaches the pipeline must change it, and the id and the deadline
/// must not.
TEST(CompileService, FingerprintSeparatesOptionsAndBudgets) {
  CompileRequest A = requestFor("func @f {}", "a");
  Budget Resolved;
  Resolved.MaxSteps = 100;
  const std::string Base = requestKey(A, 1000, Resolved);
  EXPECT_EQ(requestKey(A, 1000, Resolved), Base);

  std::vector<std::pair<const char *, std::function<void(CompileRequest &)>>>
      Changes = {
          {"ir", [](CompileRequest &R) { R.IR += "\n"; }},
          {"exit_weight",
           [](CompileRequest &R) { R.CPR.ExitWeightThreshold += 0.125; }},
          {"predict_taken",
           [](CompileRequest &R) { R.CPR.PredictTakenThreshold += 0.125; }},
          {"max_branches",
           [](CompileRequest &R) { ++R.CPR.MaxBranchesPerBlock; }},
          {"min_branches",
           [](CompileRequest &R) { ++R.CPR.MinBranchesPerBlock; }},
          {"speculation",
           [](CompileRequest &R) {
             R.CPR.EnablePredicateSpeculation =
                 !R.CPR.EnablePredicateSpeculation;
           }},
          {"taken_variation",
           [](CompileRequest &R) {
             R.CPR.EnableTakenVariation = !R.CPR.EnableTakenVariation;
           }},
          {"unroll", [](CompileRequest &R) { ++R.UnrollFactor; }},
          {"lint", [](CompileRequest &R) { R.Lint = !R.Lint; }},
          {"region_equivalence",
           [](CompileRequest &R) {
             R.RegionEquivalence = !R.RegionEquivalence;
           }},
      };
  for (const auto &[Field, Change] : Changes) {
    CompileRequest B = A;
    Change(B);
    EXPECT_NE(requestKey(B, 1000, Resolved), Base) << Field;
  }

  // The resolved budgets: interpreter steps, transform steps and wall ms.
  EXPECT_NE(requestKey(A, 2000, Resolved), Base) << "interp steps";
  Budget Other = Resolved;
  Other.MaxSteps = 101;
  EXPECT_NE(requestKey(A, 1000, Other), Base) << "budget_steps";
  Other = Resolved;
  Other.MaxWallMs = 5.0;
  EXPECT_NE(requestKey(A, 1000, Other), Base) << "budget_wall_ms";

  // Neither the correlation id nor the deadline reaches the pipeline's
  // output, so equal requests under different ids and deadlines share
  // one cache entry.
  CompileRequest B = A;
  B.Id = "other";
  B.DeadlineMs = 250.0;
  EXPECT_EQ(requestKey(B, 1000, Resolved), Base);
}

/// The key is the request itself, not a digest of it: it decodes to the
/// program and options as sent, with the resolved budgets, so two
/// requests can share a cache entry only by being equal.
TEST(CompileService, KeyDecodesToTheRequestWithResolvedBudgets) {
  CompileRequest Req =
      requestFor(serializeFuzzProgram(buildWcKernel(4, 64, 4)), "id-7");
  Req.CPR.ExitWeightThreshold = 0.375;
  Req.CPR.PredictTakenThreshold = 0.625;
  Req.CPR.MaxBranchesPerBlock = 5;
  Req.CPR.MinBranchesPerBlock = 3;
  Req.CPR.EnablePredicateSpeculation = false;
  Req.CPR.EnableTakenVariation = false;
  Req.UnrollFactor = 2;
  Req.Lint = true;
  Req.RegionEquivalence = true;
  Req.InterpMaxSteps = 999;      // as requested, before admission
  Req.TransformBudget.MaxSteps = 7;
  Req.DeadlineMs = 250.0;
  Budget Resolved;
  Resolved.MaxSteps = 40;
  Resolved.MaxWallMs = 12.5;

  Expected<CompileRequest> Back =
      decodeRequest(requestKey(Req, 123456, Resolved));
  ASSERT_TRUE(Back.ok()) << Back.diagnostic().str();
  EXPECT_EQ(Back->Kind, RequestKind::Compile);
  EXPECT_EQ(Back->Id, "");
  EXPECT_EQ(Back->IR, Req.IR);
  EXPECT_EQ(Back->CPR.ExitWeightThreshold, 0.375);
  EXPECT_EQ(Back->CPR.PredictTakenThreshold, 0.625);
  EXPECT_EQ(Back->CPR.MaxBranchesPerBlock, 5u);
  EXPECT_EQ(Back->CPR.MinBranchesPerBlock, 3u);
  EXPECT_FALSE(Back->CPR.EnablePredicateSpeculation);
  EXPECT_FALSE(Back->CPR.EnableTakenVariation);
  EXPECT_EQ(Back->UnrollFactor, 2u);
  EXPECT_TRUE(Back->Lint);
  EXPECT_TRUE(Back->RegionEquivalence);
  EXPECT_EQ(Back->InterpMaxSteps, 123456u);
  EXPECT_EQ(Back->TransformBudget.MaxSteps, 40u);
  EXPECT_EQ(Back->TransformBudget.MaxWallMs, 12.5);
  EXPECT_EQ(Back->DeadlineMs, 0.0);
}

/// Concurrent identical requests: coalescing makes the cache-wide
/// hit/miss totals a deterministic function of the workload -- one
/// request compiles (the miss), the others wait for it (hits) -- and
/// every response is byte-identical to every other.
void runConcurrentIdenticalRequests(unsigned Threads) {
  CompileService Service;
  std::string IR = serializeFuzzProgram(buildGrepKernel(4, 512, 0.02, 3));

  std::vector<CompileResponse> Responses(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Responses[T] =
          Service.compile(requestFor(IR, "t" + std::to_string(T)));
    });
  for (std::thread &W : Workers)
    W.join();

  uint64_t TotalMisses = 0;
  for (unsigned T = 0; T < Threads; ++T) {
    ASSERT_TRUE(Responses[T].ok());
    EXPECT_EQ(Responses[T].CacheHits + Responses[T].CacheMisses, 1u);
    TotalMisses += Responses[T].CacheMisses;
    EXPECT_EQ(canonicalFrame(Responses[0], "x"),
              canonicalFrame(Responses[T], "x"))
        << "thread " << T;
  }
  EXPECT_EQ(TotalMisses, 1u) << "threads=" << Threads;
  RegionCacheStats S = Service.cacheStats();
  EXPECT_EQ(S.Misses, 1u) << "threads=" << Threads;
  EXPECT_EQ(S.Hits, Threads - 1u) << "threads=" << Threads;
}

TEST(CompileService, ConcurrentRequestsAt2Threads) {
  runConcurrentIdenticalRequests(2);
}
TEST(CompileService, ConcurrentRequestsAt4Threads) {
  runConcurrentIdenticalRequests(4);
}
TEST(CompileService, ConcurrentRequestsAt8Threads) {
  runConcurrentIdenticalRequests(8);
}

TEST(CompileService, InterpStepCapIsClamped) {
  ServiceOptions SO;
  SO.MaxInterpSteps = 50; // absurdly low ceiling
  CompileService Service(SO);
  // The kernel needs far more steps to profile; admission clamps the
  // request's cap to 50 and the profile run fails recoverably.
  CompileRequest Req =
      requestFor(serializeFuzzProgram(buildWcKernel(4, 256, 4)), "clamp");
  Req.InterpMaxSteps = 1000000000;
  CompileResponse Res = Service.compile(Req);
  EXPECT_EQ(Res.Status, "error");
  EXPECT_FALSE(Res.Diagnostics.empty());
}

/// A lint request on a lint-dirty input answers each of the input's
/// findings once: the treated function's findings repeat them and are
/// not reported.
TEST(CompileService, LintFindingOfTheInputIsReportedOnce) {
  FuzzParseResult FP = loadFuzzProgramFile(std::string(CPR_LINT_FIXTURE_DIR) +
                                           "/bad_frp.ir");
  ASSERT_TRUE(FP) << FP.Error;
  CompileRequest Req = requestFor(serializeFuzzProgram(FP.Program), "lint");
  Req.Lint = true;
  CompileService Service;
  CompileResponse Res = Service.compile(Req);
  ASSERT_TRUE(Res.ok()) << Res.Status;
  unsigned Lint = 0, FrpConsistency = 0;
  for (const WireDiagnostic &D : Res.Diagnostics) {
    Lint += D.Site.rfind("lint.", 0) == 0;
    FrpConsistency += D.Site == "lint.frp-consistency";
  }
  EXPECT_EQ(FrpConsistency, 1u);
  EXPECT_EQ(Lint, 1u);
}

TEST(CompileService, FailedBaselineProfileIsReportedOnce) {
  CompileService Service;
  CompileRequest Req =
      requestFor(serializeFuzzProgram(buildWcKernel(4, 256, 4)), "cap5");
  Req.InterpMaxSteps = 5;
  CompileResponse Res = Service.compile(Req);
  EXPECT_EQ(Res.Status, "error");
  unsigned Exhausted = 0;
  for (const WireDiagnostic &D : Res.Diagnostics)
    Exhausted += D.Code == "budget-exhausted";
  EXPECT_EQ(Exhausted, 1u);
}

} // namespace
