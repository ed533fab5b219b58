//===- tests/support/StatsRegistryTest.cpp - Stats registry tests ---------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/JSON.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <thread>

using namespace cpr;

TEST(StatsRegistry, CountsAccumulate) {
  StatsRegistry R;
  EXPECT_EQ(R.count("x"), 0.0);
  R.addCount("x");
  R.addCount("x", 2.5);
  R.addCount("y", 4.0);
  EXPECT_EQ(R.count("x"), 3.5);
  EXPECT_EQ(R.count("y"), 4.0);
  R.clear();
  EXPECT_EQ(R.count("x"), 0.0);
  EXPECT_TRUE(R.counters().empty());
}

TEST(StatsRegistry, TimesAccumulate) {
  StatsRegistry R;
  R.recordTimeMs("stage", 1.5);
  R.recordTimeMs("stage", 2.5);
  EXPECT_EQ(R.timeMs("stage"), 4.0);
}

TEST(StatsRegistry, SnapshotsAreSortedByKey) {
  StatsRegistry R;
  R.addCount("zeta", 1);
  R.addCount("alpha", 2);
  R.addCount("mid/key", 3);
  std::vector<std::pair<std::string, double>> C = R.counters();
  ASSERT_EQ(C.size(), 3u);
  EXPECT_EQ(C[0].first, "alpha");
  EXPECT_EQ(C[1].first, "mid/key");
  EXPECT_EQ(C[2].first, "zeta");
}

TEST(StatsRegistry, MergePrependsPrefix) {
  StatsRegistry Task;
  Task.addCount("branches", 5);
  Task.recordTimeMs("transform", 1.0);
  StatsRegistry Total;
  Total.addCount("kernel/branches", 1);
  Total.mergeFrom(Task, "kernel/");
  EXPECT_EQ(Total.count("kernel/branches"), 6.0);
  EXPECT_EQ(Total.timeMs("kernel/transform"), 1.0);
}

TEST(StatsRegistry, JSONDocumentShape) {
  StatsRegistry R;
  R.addCount("b", 2);
  R.addCount("a", 1);
  R.recordTimeMs("t", 0.5);

  JSONParseResult P = parseJSON(R.toJSONText());
  ASSERT_TRUE(static_cast<bool>(P)) << P.Error;
  const JSONValue *Schema = P.Value.find("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->getString(), "cpr-stats-v1.3");
  const JSONValue *Counters = P.Value.find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_EQ(Counters->members().size(), 2u);
  EXPECT_EQ(Counters->members()[0].first, "a"); // sorted
  EXPECT_EQ(Counters->members()[1].first, "b");
  EXPECT_EQ(Counters->members()[1].second.getNumber(), 2.0);
  const JSONValue *Times = P.Value.find("times_ms");
  ASSERT_NE(Times, nullptr);
  EXPECT_EQ(Times->members().size(), 1u);
}

TEST(StatsRegistry, TimesExcludableForDeterministicComparison) {
  StatsRegistry A, B;
  A.addCount("k", 1);
  A.recordTimeMs("t", 1.0);
  B.addCount("k", 1);
  B.recordTimeMs("t", 99.0); // different wall time, same work
  EXPECT_NE(A.toJSONText(true), B.toJSONText(true));
  EXPECT_EQ(A.toJSONText(false), B.toJSONText(false));
  EXPECT_EQ(A.toJSONText(false).find("times_ms"), std::string::npos);
}

TEST(StatsRegistry, ConcurrentReportingIsDeterministic) {
  StatsRegistry R;
  ThreadPool Pool(4);
  parallelFor(&Pool, 200, [&R](size_t I) {
    R.addCount("total");
    R.addCount(I % 2 ? "odd" : "even");
  });
  EXPECT_EQ(R.count("total"), 200.0);
  EXPECT_EQ(R.count("odd"), 100.0);
  EXPECT_EQ(R.count("even"), 100.0);
}

TEST(StatsRegistry, FileRoundTrip) {
  StatsRegistry R;
  R.addCount("pipeline/ops", 1234);
  std::string Path = ::testing::TempDir() + "cpr_stats_test.json";
  std::string Error;
  ASSERT_TRUE(writeStatsJSONFile(R, Path, &Error)) << Error;

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::string Text(1 << 12, '\0');
  Text.resize(std::fread(Text.data(), 1, Text.size(), F));
  std::fclose(F);
  std::remove(Path.c_str());

  JSONParseResult P = parseJSON(Text);
  ASSERT_TRUE(static_cast<bool>(P)) << P.Error;
  const JSONValue *Counters = P.Value.find("counters");
  ASSERT_NE(Counters, nullptr);
  const JSONValue *Ops = Counters->find("pipeline/ops");
  ASSERT_NE(Ops, nullptr);
  EXPECT_EQ(Ops->getNumber(), 1234.0);

  std::string BadError;
  EXPECT_FALSE(writeStatsJSONFile(R, "/nonexistent-dir/x.json", &BadError));
  EXPECT_FALSE(BadError.empty());
}

TEST(PassTimer, ReportsOnceAndOnlyWhenRegistryGiven) {
  StatsRegistry R;
  {
    PassTimer T(&R, "stage");
    double Ms = T.stop();
    EXPECT_GE(Ms, 0.0);
    EXPECT_EQ(T.stop(), Ms); // idempotent; no double report
  }
  EXPECT_EQ(R.timesMs().size(), 1u);
  { PassTimer T(nullptr, "ignored"); } // null registry: no-op
  EXPECT_EQ(R.timesMs().size(), 1u);
}

TEST(PassTimer, NullRegistryReadsNoClock) {
  PassTimer T(nullptr, "ignored");
  // Time passes, but a timer that reads no clock measures none of it.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(T.stop(), 0.0);
}

TEST(JSON, WriterIsDeterministicAndParserStrict) {
  JSONValue O = JSONValue::object();
  O.set("int", JSONValue::number(42));
  O.set("frac", JSONValue::number(0.5));
  O.set("s", JSONValue::str("quote \" and \n newline"));
  JSONValue Arr = JSONValue::array();
  Arr.append(JSONValue::boolean(true));
  Arr.append(JSONValue::null());
  O.set("arr", Arr);

  std::string Compact = writeJSON(O, /*Pretty=*/false);
  EXPECT_EQ(Compact, writeJSON(O, false)); // pure function of the value
  JSONParseResult P = parseJSON(Compact);
  ASSERT_TRUE(static_cast<bool>(P)) << P.Error;
  EXPECT_EQ(P.Value.find("int")->getNumber(), 42.0);
  EXPECT_EQ(P.Value.find("frac")->getNumber(), 0.5);
  EXPECT_EQ(P.Value.find("s")->getString(), "quote \" and \n newline");
  ASSERT_TRUE(P.Value.find("arr")->isArray());
  EXPECT_EQ(P.Value.find("arr")->items().size(), 2u);
  // Pretty output parses back to the same document too.
  EXPECT_EQ(writeJSON(parseJSON(writeJSON(O, true)).Value, false), Compact);

  EXPECT_FALSE(static_cast<bool>(parseJSON("{\"a\": 1,}")));
  EXPECT_FALSE(static_cast<bool>(parseJSON("{\"a\": 1} trailing")));
  EXPECT_FALSE(static_cast<bool>(parseJSON("")));
}
