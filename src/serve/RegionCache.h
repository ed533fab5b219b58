//===- serve/RegionCache.h - LRU compile-response cache ---------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile service's whole-response cache: a thread-safe LRU of clean
/// CompileResponses keyed by the request (serve::requestKey), with a
/// configurable memory budget.
///
/// lookup() either returns a recorded response (a hit) or returns nullopt
/// and hands the caller an *in-flight claim* on the key: the caller now
/// owns producing the response and must call commit() or abandon()
/// exactly once.
///
/// Determinism of the hit/miss counters at any thread count comes from
/// *in-flight coalescing*: the first lookup of an uncached key claims it
/// (one miss) and concurrent lookups of the same key block until the
/// claimant commits (they become hits) or abandons (one waiter inherits
/// the claim and the miss). A key that always compiles unclean (never
/// commits) therefore counts one miss per attempt, and a key that commits
/// counts exactly one miss -- regardless of scheduling. Eviction is
/// triggered only by commit, so eviction counts are deterministic for any
/// serial request sequence; under concurrency they stay deterministic as
/// long as the budget does not force still-live keys out mid-run (the
/// regression tests pin both regimes).
///
/// Entries are stored and returned by value: a returned response is the
/// caller's copy, never invalidated by eviction.
///
//===----------------------------------------------------------------------===//

#ifndef SERVE_REGIONCACHE_H
#define SERVE_REGIONCACHE_H

#include "serve/Protocol.h"

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>

namespace cpr {
namespace serve {

/// Counter snapshot for `cpr-stats-v1.3` / the `stats` command of cprd.
struct RegionCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t CoalescedWaits = 0; ///< lookups that blocked on a claim (timing-dependent)
  uint64_t Entries = 0;        ///< resident entries
  uint64_t Bytes = 0;          ///< resident approximate bytes
  uint64_t MaxBytes = 0;       ///< configured budget (0 = unlimited)
};

/// Thread-safe LRU response cache (see file comment).
class RegionCache {
public:
  /// \p MaxBytes bounds the resident entries' approximate footprint;
  /// 0 means unlimited.
  explicit RegionCache(size_t MaxBytes = 64u << 20);

  /// Hit: returns a copy of the recorded response. Miss: returns nullopt
  /// and transfers the in-flight claim for \p Key to the caller.
  std::optional<CompileResponse> lookup(const std::string &Key);

  /// Records \p Entry and releases the claim; pending waiters get hits.
  void commit(const std::string &Key, CompileResponse Entry);

  /// Drops the claim without recording (unclean response); one pending
  /// waiter inherits the claim.
  void abandon(const std::string &Key);

  RegionCacheStats stats() const;

  /// Drops every resident entry (claims are unaffected). Counters keep
  /// their values; evictions are not counted for a clear().
  void clear();

private:
  struct Node {
    std::string Key;
    CompileResponse Entry;
    size_t Bytes;
  };
  /// Resolution state of one in-flight claim, shared with its waiters.
  struct Claim {
    bool Done = false;
    bool Committed = false;
    CompileResponse Entry; ///< valid when Committed
  };

  /// Inserts under the lock and evicts from the LRU tail past the budget.
  void insertLocked(const std::string &Key, CompileResponse Entry);

  mutable std::mutex Mu;
  std::condition_variable CV;
  std::list<Node> LRU; ///< front = most recently used
  /// Keyed on a view of its node's key: a resident key is stored once, in
  /// the node, which a std::list never moves. An entry leaves the map
  /// before its node leaves the list.
  std::unordered_map<std::string_view, std::list<Node>::iterator> Map;
  std::unordered_map<std::string, std::shared_ptr<Claim>> Claims;
  size_t MaxBytes;
  size_t TotalBytes = 0;
  uint64_t NHits = 0, NMisses = 0, NEvictions = 0, NCoalesced = 0;
};

} // namespace serve
} // namespace cpr

#endif // SERVE_REGIONCACHE_H
