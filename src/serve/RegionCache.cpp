//===- serve/RegionCache.cpp - LRU compile-response cache ------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/RegionCache.h"

#include "support/FaultInjector.h"

#include <cassert>

using namespace cpr;
using namespace cpr::serve;

namespace {

/// Rough heap footprint of one cached response, for the memory budget:
/// the key once (the map holds a view of the node's copy) and the
/// response. Only clean responses are cached (no diagnostics, no stats
/// payload), so the treated program text dominates.
size_t approximateBytes(const std::string &Key, const CompileResponse &R) {
  return sizeof(CompileResponse) + Key.size() + R.Id.size() +
         R.Status.size() + R.IR.size();
}

} // namespace

RegionCache::RegionCache(size_t MaxBytes) : MaxBytes(MaxBytes) {}

std::optional<CompileResponse> RegionCache::lookup(const std::string &Key) {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    auto It = Map.find(Key);
    if (It != Map.end()) {
      LRU.splice(LRU.begin(), LRU, It->second);
      ++NHits;
      return It->second->Entry;
    }
    auto CIt = Claims.find(Key);
    if (CIt == Claims.end()) {
      Claims.emplace(Key, std::make_shared<Claim>());
      ++NMisses;
      return std::nullopt;
    }
    // Coalesce: wait for the claimant instead of compiling the same
    // request twice. shared_ptr keeps the claim alive past its erasure.
    std::shared_ptr<Claim> C = CIt->second;
    ++NCoalesced;
    CV.wait(Lock, [&] { return C->Done; });
    if (C->Committed) {
      ++NHits;
      return C->Entry;
    }
    // Abandoned: loop -- the first waiter through takes over the claim.
  }
}

void RegionCache::commit(const std::string &Key, CompileResponse Entry) {
  // Injected insert failure (docs/ROBUSTNESS.md site catalog): the clean
  // response is dropped as if the commit never happened. Waiters inherit
  // the claim and recompute -- correctness must not depend on an insert
  // ever succeeding.
  if (fault::shouldFail("serve.cache.insert")) {
    abandon(Key);
    return;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  auto CIt = Claims.find(Key);
  assert(CIt != Claims.end() && "commit without a lookup miss");
  if (CIt != Claims.end()) {
    CIt->second->Entry = Entry;
    CIt->second->Committed = true;
    CIt->second->Done = true;
    Claims.erase(CIt);
  }
  insertLocked(Key, std::move(Entry));
  CV.notify_all();
}

void RegionCache::abandon(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto CIt = Claims.find(Key);
  assert(CIt != Claims.end() && "abandon without a lookup miss");
  if (CIt != Claims.end()) {
    CIt->second->Done = true;
    Claims.erase(CIt);
  }
  CV.notify_all();
}

void RegionCache::insertLocked(const std::string &Key,
                               CompileResponse Entry) {
  // A racing commit for the same key cannot happen (the claim serializes
  // producers), but be safe against double insertion anyway.
  if (Map.count(Key))
    return;
  size_t Bytes = approximateBytes(Key, Entry);
  LRU.push_front(Node{Key, std::move(Entry), Bytes});
  Map.emplace(LRU.front().Key, LRU.begin());
  TotalBytes += Bytes;
  // Evict strictly past the budget, oldest first. An entry larger than
  // the whole budget evicts immediately (waiters already hold copies via
  // the claim), keeping TotalBytes <= MaxBytes invariant.
  while (MaxBytes != 0 && TotalBytes > MaxBytes && !LRU.empty()) {
    Node &Victim = LRU.back();
    TotalBytes -= Victim.Bytes;
    Map.erase(Victim.Key); // before the node (and the key it views) goes
    LRU.pop_back();
    ++NEvictions;
  }
}

RegionCacheStats RegionCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  RegionCacheStats S;
  S.Hits = NHits;
  S.Misses = NMisses;
  S.Evictions = NEvictions;
  S.CoalescedWaits = NCoalesced;
  S.Entries = Map.size();
  S.Bytes = TotalBytes;
  S.MaxBytes = MaxBytes;
  return S;
}

void RegionCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.clear();
  LRU.clear();
  TotalBytes = 0;
}
