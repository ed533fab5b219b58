//===- support/FaultInjector.cpp - Named fault-site injection --------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include <algorithm>
#include <atomic>
#include <mutex>

using namespace cpr;

namespace {

/// Built-in catalog; campaigns iterate this even for sites the current
/// workload never executes. Keep sorted and in sync with the header
/// comment and docs/ROBUSTNESS.md.
const char *const BuiltinSites[] = {
    "alloc",
    "cpr.offtrace.move",
    "cpr.restructure.compensation",
    "cpr.restructure.plan",
    "interp.oracle",
    "ir.verify",
    "pipeline.transform",
    "serve.cache.insert",
    "serve.dispatch.enqueue",
    "serve.frame.decode",
    "serve.socket.write",
};

struct Registry {
  std::mutex Mu;
  std::vector<std::string> Sites{std::begin(BuiltinSites),
                                 std::end(BuiltinSites)};
  std::string Armed;
  uint64_t Nth = 0;
};

Registry &registry() {
  static Registry R;
  return R;
}

/// Fast-path gate: shouldFail() is on hot transform paths, so the
/// disarmed case must not take a lock.
std::atomic<bool> AnyArmed{false};
std::atomic<uint64_t> Hits{0};
std::atomic<bool> Fired{false};

} // namespace

std::vector<std::string> fault::sites() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  std::vector<std::string> Out = R.Sites;
  std::sort(Out.begin(), Out.end());
  return Out;
}

bool fault::isKnownSite(const std::string &Site) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  return std::find(R.Sites.begin(), R.Sites.end(), Site) != R.Sites.end();
}

bool fault::arm(const std::string &Site, uint64_t NthHit) {
  if (NthHit == 0)
    return false;
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  if (std::find(R.Sites.begin(), R.Sites.end(), Site) == R.Sites.end())
    R.Sites.push_back(Site);
  R.Armed = Site;
  R.Nth = NthHit;
  Hits.store(0, std::memory_order_relaxed);
  Fired.store(false, std::memory_order_relaxed);
  AnyArmed.store(true, std::memory_order_release);
  return true;
}

void fault::disarm() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Armed.clear();
  R.Nth = 0;
  Hits.store(0, std::memory_order_relaxed);
  Fired.store(false, std::memory_order_relaxed);
  AnyArmed.store(false, std::memory_order_release);
}

std::string fault::armedSite() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  return R.Armed;
}

uint64_t fault::armedHits() { return Hits.load(std::memory_order_relaxed); }

bool fault::fired() { return Fired.load(std::memory_order_relaxed); }

bool fault::shouldFail(const char *Site) {
  if (!AnyArmed.load(std::memory_order_acquire))
    return false;
  uint64_t Nth;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mu);
    if (R.Armed != Site)
      return false;
    Nth = R.Nth;
  }
  uint64_t Hit = Hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Nth != fault::EveryHit && Hit != Nth)
    return false;
  Fired.store(true, std::memory_order_relaxed);
  return true;
}
