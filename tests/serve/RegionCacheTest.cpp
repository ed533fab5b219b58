//===- tests/serve/RegionCacheTest.cpp - RegionCache unit tests ------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The response cache's contract (serve/RegionCache.h): LRU residency
// under a byte budget, and hit/miss counters that are a deterministic
// function of the request sequence at ANY thread count -- the in-flight
// coalescing rule (first lookup claims, concurrent lookups wait, abandon
// hands the claim to one waiter) is what the concurrency tests pin.
//
//===----------------------------------------------------------------------===//

#include "serve/RegionCache.h"

#include "gtest/gtest.h"

#include <thread>
#include <vector>

using namespace cpr;
using namespace cpr::serve;

namespace {

/// A response tagged through a counter (so a returned copy identifies
/// which commit produced it) and padded to a controllable footprint.
CompileResponse makeEntry(unsigned Tag, size_t PadBytes = 0) {
  CompileResponse E;
  E.Status = "ok";
  E.CPR.RegionsProcessed = Tag;
  E.IR.assign(PadBytes, 'x');
  return E;
}

/// A two-character fingerprint stand-in ("k0", "k1", ...).
std::string key(uint64_t K) { return "k" + std::to_string(K); }

TEST(RegionCache, MissClaimCommitHit) {
  RegionCache Cache(/*MaxBytes=*/0);
  EXPECT_FALSE(Cache.lookup("fp42").has_value()); // miss, claim taken
  Cache.commit("fp42", makeEntry(7));
  std::optional<CompileResponse> E = Cache.lookup("fp42");
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->CPR.RegionsProcessed, 7u);

  RegionCacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Evictions, 0u);
}

TEST(RegionCache, AbandonedKeyMissesAgain) {
  RegionCache Cache(0);
  EXPECT_FALSE(Cache.lookup("fp1").has_value());
  Cache.abandon("fp1"); // the compile was unclean; nothing recorded
  EXPECT_FALSE(Cache.lookup("fp1").has_value());
  Cache.abandon("fp1");

  RegionCacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 2u); // one miss per attempt, never a false hit
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Entries, 0u);
}

TEST(RegionCache, EvictsLeastRecentlyUsedUnderBudget) {
  // Budget sized for about two padded entries (response, key and status
  // bytes included).
  const size_t Pad = 4096;
  RegionCache Cache(2 * (sizeof(CompileResponse) + Pad + 4) + 64);
  for (uint64_t K = 0; K < 2; ++K) {
    EXPECT_FALSE(Cache.lookup(key(K)).has_value());
    Cache.commit(key(K), makeEntry(static_cast<unsigned>(K), Pad));
  }
  EXPECT_EQ(Cache.stats().Entries, 2u);

  // Touch key 0 so key 1 is the LRU tail, then insert key 2.
  EXPECT_TRUE(Cache.lookup(key(0)).has_value());
  EXPECT_FALSE(Cache.lookup(key(2)).has_value());
  Cache.commit(key(2), makeEntry(2, Pad));

  RegionCacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_LE(S.Bytes, S.MaxBytes);
  EXPECT_TRUE(Cache.lookup(key(0)).has_value());  // recently touched
  EXPECT_TRUE(Cache.lookup(key(2)).has_value());  // just inserted
  EXPECT_FALSE(Cache.lookup(key(1)).has_value()); // LRU tail: evicted
  Cache.abandon(key(1));                          // release the re-claim
}

TEST(RegionCache, OversizeEntryNeverResident) {
  RegionCache Cache(/*MaxBytes=*/64); // smaller than any entry
  EXPECT_FALSE(Cache.lookup("fp5").has_value());
  Cache.commit("fp5", makeEntry(1, 4096));

  RegionCacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 0u);
  EXPECT_EQ(S.Bytes, 0u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_FALSE(Cache.lookup("fp5").has_value());
  Cache.abandon("fp5");
}

TEST(RegionCache, ClearDropsEntriesKeepsCounters) {
  RegionCache Cache(0);
  EXPECT_FALSE(Cache.lookup("fp9").has_value());
  Cache.commit("fp9", makeEntry(9));
  EXPECT_TRUE(Cache.lookup("fp9").has_value());
  Cache.clear();

  RegionCacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 0u);
  EXPECT_EQ(S.Bytes, 0u);
  EXPECT_EQ(S.Hits, 1u); // counters survive the clear
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_FALSE(Cache.lookup("fp9").has_value());
  Cache.abandon("fp9");
}

/// The determinism claim: Keys distinct keys looked up by every one of
/// Threads workers concurrently produce exactly Keys misses (one per
/// key, the claimant's) and Threads*Keys - Keys hits (everyone else),
/// regardless of scheduling.
void runDeterministicCounters(unsigned Threads, uint64_t Keys) {
  RegionCache Cache(0);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&Cache, Keys] {
      for (uint64_t K = 0; K < Keys; ++K)
        if (!Cache.lookup(key(K)).has_value())
          Cache.commit(key(K), makeEntry(static_cast<unsigned>(K)));
    });
  for (std::thread &W : Workers)
    W.join();

  RegionCacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, Keys) << "threads=" << Threads;
  EXPECT_EQ(S.Hits, Threads * Keys - Keys) << "threads=" << Threads;
  EXPECT_EQ(S.Entries, Keys);
}

TEST(RegionCache, DeterministicCountersAt1Thread) {
  runDeterministicCounters(1, 16);
}
TEST(RegionCache, DeterministicCountersAt2Threads) {
  runDeterministicCounters(2, 16);
}
TEST(RegionCache, DeterministicCountersAt4Threads) {
  runDeterministicCounters(4, 16);
}
TEST(RegionCache, DeterministicCountersAt8Threads) {
  runDeterministicCounters(8, 16);
}

/// Abandon under contention: the claim passes to exactly one waiter, so
/// an always-unclean key still counts one miss per lookup and the entry
/// count stays zero.
TEST(RegionCache, AbandonUnderContentionTransfersClaim) {
  const unsigned Threads = 8;
  RegionCache Cache(0);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&Cache] {
      if (!Cache.lookup("fp77").has_value())
        Cache.abandon("fp77");
    });
  for (std::thread &W : Workers)
    W.join();

  RegionCacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, Threads); // every lookup became a (transferred) claim
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Entries, 0u);
}

} // namespace
