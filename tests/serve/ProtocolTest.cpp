//===- tests/serve/ProtocolTest.cpp - cprd-v1 frame codec tests ------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Requests cross a trust boundary: decodeRequest must reject malformed
// JSON, duplicate keys, unknown fields, wrong types and integer options
// that do not fit their field with a recoverable ParseError diagnostic at
// site "cprd.frame" -- never a fatal error.
// Response decoding is lenient (unknown fields ignored) so older clients
// keep working against newer daemons.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "gtest/gtest.h"

using namespace cpr;
using namespace cpr::serve;

namespace {

void expectFrameError(const std::string &Line) {
  Expected<CompileRequest> R = decodeRequest(Line);
  ASSERT_FALSE(R.ok()) << Line;
  EXPECT_EQ(R.diagnostic().Code, DiagCode::ParseError) << Line;
  EXPECT_EQ(R.diagnostic().Site, "cprd.frame") << Line;
}

TEST(Protocol, RequestRoundTrip) {
  CompileRequest Req;
  Req.Id = "r42";
  Req.IR = "; cpr-fuzz-program-v1\n; reg r1=7\nfunc @f { ... }\n";
  Req.CPR.ExitWeightThreshold = 0.25;
  Req.CPR.PredictTakenThreshold = 0.75;
  Req.CPR.MaxBranchesPerBlock = 5;
  Req.CPR.EnablePredicateSpeculation = false;
  Req.UnrollFactor = 4;
  Req.Lint = true;
  Req.RegionEquivalence = true;
  Req.InterpMaxSteps = 123456;
  Req.TransformBudget.MaxSteps = 99;

  Expected<CompileRequest> Back = decodeRequest(encodeRequest(Req));
  ASSERT_TRUE(Back.ok()) << Back.diagnostic().str();
  EXPECT_EQ(Back->Kind, RequestKind::Compile);
  EXPECT_EQ(Back->Id, "r42");
  EXPECT_EQ(Back->IR, Req.IR);
  EXPECT_DOUBLE_EQ(Back->CPR.ExitWeightThreshold, 0.25);
  EXPECT_DOUBLE_EQ(Back->CPR.PredictTakenThreshold, 0.75);
  EXPECT_EQ(Back->CPR.MaxBranchesPerBlock, 5u);
  EXPECT_FALSE(Back->CPR.EnablePredicateSpeculation);
  EXPECT_EQ(Back->UnrollFactor, 4u);
  EXPECT_TRUE(Back->Lint);
  EXPECT_TRUE(Back->RegionEquivalence);
  EXPECT_EQ(Back->InterpMaxSteps, 123456u);
  EXPECT_EQ(Back->TransformBudget.MaxSteps, 99u);
}

TEST(Protocol, PingAndStatsRoundTrip) {
  for (const char *Cmd : {"ping", "stats"}) {
    CompileRequest Req;
    Req.Kind = Cmd[0] == 'p' ? RequestKind::Ping : RequestKind::Stats;
    Req.Id = Cmd;
    Expected<CompileRequest> Back = decodeRequest(encodeRequest(Req));
    ASSERT_TRUE(Back.ok());
    EXPECT_EQ(Back->Kind, Req.Kind);
    EXPECT_EQ(Back->Id, Cmd);
  }
}

TEST(Protocol, RejectsMalformedJSON) {
  expectFrameError("{not json");
  expectFrameError("");
  expectFrameError("[1,2,3]"); // frames are objects
}

TEST(Protocol, RejectsUnterminatedString) {
  expectFrameError("{\"proto\":\"cprd-v1\",\"id\":\"r1\",\"ir\":\"func");
}

TEST(Protocol, RejectsDuplicateKeys) {
  expectFrameError(
      "{\"proto\":\"cprd-v1\",\"id\":\"a\",\"id\":\"b\",\"ir\":\"x\"}");
}

TEST(Protocol, RejectsWrongOrMissingProto) {
  expectFrameError("{\"id\":\"r1\",\"ir\":\"func @f {}\"}");
  expectFrameError(
      "{\"proto\":\"cprd-v2\",\"id\":\"r1\",\"ir\":\"func @f {}\"}");
}

TEST(Protocol, RejectsUnknownFieldsAndOptions) {
  expectFrameError("{\"proto\":\"cprd-v1\",\"id\":\"r1\",\"ir\":\"x\","
                   "\"surprise\":1}");
  expectFrameError("{\"proto\":\"cprd-v1\",\"id\":\"r1\",\"ir\":\"x\","
                   "\"options\":{\"no_such_option\":1}}");
}

TEST(Protocol, RejectsWrongTypes) {
  expectFrameError("{\"proto\":\"cprd-v1\",\"id\":7,\"ir\":\"x\"}");
  expectFrameError("{\"proto\":\"cprd-v1\",\"id\":\"r1\",\"ir\":3}");
  expectFrameError("{\"proto\":\"cprd-v1\",\"id\":\"r1\",\"ir\":\"x\","
                   "\"options\":{\"unroll\":\"four\"}}");
}

TEST(Protocol, RejectsIntegerOptionsThatDoNotFitTheirField) {
  // A cast would wrap -1 to 4294967295, truncate 2.5 to 2, and is
  // undefined for 1e20; each is a parse error that names its field.
  const std::pair<const char *, const char *> Bad[] = {
      {"unroll", "-1"},
      {"unroll", "2.5"},
      {"unroll", "4294967296"},
      {"max_branches", "1e20"},
      {"max_branches", "-3"},
      {"min_branches", "0.5"},
      {"interp_max_steps", "-1"},
      {"interp_max_steps", "1.5"},
      {"interp_max_steps", "1e20"},
      {"interp_max_steps", "18446744073709551616"},
      {"budget_steps", "-2"},
      {"budget_steps", "7.25"},
  };
  for (const auto &[Field, Value] : Bad) {
    std::string Line =
        std::string("{\"proto\":\"cprd-v1\",\"id\":\"r1\",\"ir\":\"x\","
                    "\"options\":{\"") +
        Field + "\":" + Value + "}}";
    expectFrameError(Line);
    Expected<CompileRequest> R = decodeRequest(Line);
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.diagnostic().Message.find(std::string("\"") + Field + "\""),
              std::string::npos)
        << R.diagnostic().Message;
  }

  // The ends of each field's range still decode, exactly.
  Expected<CompileRequest> Max = decodeRequest(
      "{\"proto\":\"cprd-v1\",\"id\":\"r1\",\"ir\":\"x\",\"options\":{"
      "\"unroll\":4294967295,\"max_branches\":0,\"min_branches\":-0,"
      "\"interp_max_steps\":18446744073709549568,\"budget_steps\":1e3}}");
  ASSERT_TRUE(Max.ok()) << Max.diagnostic().str();
  EXPECT_EQ(Max->UnrollFactor, 4294967295u);
  EXPECT_EQ(Max->CPR.MaxBranchesPerBlock, 0u);
  EXPECT_EQ(Max->CPR.MinBranchesPerBlock, 0u);
  EXPECT_EQ(Max->InterpMaxSteps, 18446744073709549568u);
  EXPECT_EQ(Max->TransformBudget.MaxSteps, 1000u);
}

TEST(Protocol, MissingIRRejectedForCompileOnly) {
  expectFrameError("{\"proto\":\"cprd-v1\",\"id\":\"r1\"}");
  Expected<CompileRequest> Ping =
      decodeRequest("{\"proto\":\"cprd-v1\",\"cmd\":\"ping\","
                    "\"id\":\"p\"}");
  EXPECT_TRUE(Ping.ok());
}

TEST(Protocol, UnknownCmdListsRegisteredCommands) {
  // Mirrors the unknown --predictor= contract: the rejection names every
  // registered command so a stale client learns the vocabulary from the
  // error itself.
  Expected<CompileRequest> R = decodeRequest(
      "{\"proto\":\"cprd-v1\",\"cmd\":\"compiel\",\"id\":\"r1\"}");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diagnostic().Code, DiagCode::ParseError);
  EXPECT_NE(R.diagnostic().Message.find("registered commands: " +
                                        requestCommandList()),
            std::string::npos)
      << R.diagnostic().Message;
  // The registry is the single source of truth; every known command must
  // appear in the advertised list.
  for (const char *Cmd : {"compile", "ping", "stats"})
    EXPECT_NE(requestCommandList().find(Cmd), std::string::npos) << Cmd;
}

TEST(Protocol, DeadlineMsRoundTrip) {
  CompileRequest Req;
  Req.Id = "d1";
  Req.IR = "func @f { ... }\n";
  Req.DeadlineMs = 1500.0;
  Expected<CompileRequest> Back = decodeRequest(encodeRequest(Req));
  ASSERT_TRUE(Back.ok()) << Back.diagnostic().str();
  EXPECT_DOUBLE_EQ(Back->DeadlineMs, 1500.0);
}

TEST(Protocol, ZeroDeadlineStaysOffTheWire) {
  // deadline_ms is only emitted when set, so pre-deadline fixtures (and
  // requests from older clients) encode byte-identically.
  CompileRequest Req;
  Req.Id = "d0";
  Req.IR = "func @f { ... }\n";
  EXPECT_EQ(encodeRequest(Req).find("deadline_ms"), std::string::npos);
  Req.DeadlineMs = 250.0;
  EXPECT_NE(encodeRequest(Req).find("\"deadline_ms\":250"),
            std::string::npos)
      << encodeRequest(Req);
}

TEST(Protocol, RejectsWrongDeadlineType) {
  expectFrameError("{\"proto\":\"cprd-v1\",\"id\":\"r1\",\"ir\":\"x\","
                   "\"options\":{\"deadline_ms\":\"soon\"}}");
}

TEST(Protocol, ResponseRoundTrip) {
  CompileResponse Res;
  Res.Id = "r42";
  Res.Status = "ok";
  Res.IR = "func @f { ... }\n";
  Res.FellBack = true;
  Res.CPR.RegionsProcessed = 3;
  Res.CPR.CPRBlocksTransformed = 2;
  Res.CacheHits = 5;
  Res.CacheMisses = 1;
  WireDiagnostic D;
  D.Severity = "warning";
  D.Code = "budget-exhausted";
  D.Message = "m";
  D.Site = "s";
  Res.Diagnostics.push_back(D);

  Expected<CompileResponse> Back = decodeResponse(encodeResponse(Res));
  ASSERT_TRUE(Back.ok()) << Back.diagnostic().str();
  EXPECT_EQ(Back->Id, "r42");
  EXPECT_EQ(Back->Status, "ok");
  EXPECT_EQ(Back->IR, Res.IR);
  EXPECT_TRUE(Back->FellBack);
  EXPECT_EQ(Back->CPR.RegionsProcessed, 3u);
  EXPECT_EQ(Back->CPR.CPRBlocksTransformed, 2u);
  EXPECT_EQ(Back->CacheHits, 5u);
  EXPECT_EQ(Back->CacheMisses, 1u);
  ASSERT_EQ(Back->Diagnostics.size(), 1u);
  EXPECT_EQ(Back->Diagnostics[0].Code, "budget-exhausted");
}

TEST(Protocol, ResponseDecodeIsLenientAboutUnknownFields) {
  Expected<CompileResponse> Res = decodeResponse(
      "{\"proto\":\"cprd-v1\",\"id\":\"r1\",\"status\":\"ok\","
      "\"ir\":\"f\",\"from_the_future\":{\"x\":1}}");
  ASSERT_TRUE(Res.ok());
  EXPECT_EQ(Res->Id, "r1");
  EXPECT_TRUE(Res->ok());
}

TEST(Protocol, WallTimeStaysOffTheWire) {
  // A response frame is a pure function of the request: encoding must
  // not leak wall-clock state, or cached and cold compiles would differ.
  CompileResponse A, B;
  A.Id = B.Id = "r";
  A.Status = B.Status = "ok";
  A.WallMs = 1.0;
  B.WallMs = 999.0;
  EXPECT_EQ(encodeResponse(A), encodeResponse(B));
}

TEST(Protocol, ErrorResponseCarriesDiagnostic) {
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Code = DiagCode::ParseError;
  D.Message = "bad frame";
  D.Site = "cprd.frame";
  CompileResponse Res = errorResponse("r9", D);
  EXPECT_EQ(Res.Id, "r9");
  EXPECT_EQ(Res.Status, "error");
  ASSERT_EQ(Res.Diagnostics.size(), 1u);
  EXPECT_EQ(Res.Diagnostics[0].Code, "parse-error");
  EXPECT_EQ(Res.Diagnostics[0].Severity, "error");
}

} // namespace
