//===- support/FaultInjector.h - Named fault-site injection -----*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of *named fault sites* planted at the failure-prone seams of
/// the compiler (compensation insertion, off-trace motion, the verifier
/// and oracle steps of a region transaction, allocation, the transform
/// stage entry). Tests and the cpr-fuzz fault campaign arm one site for
/// its N-th hit; the site then fails exactly once, deterministically, and
/// the fail-safe layer (docs/ROBUSTNESS.md) must contain the damage: the
/// invariant under any injected fault is rollback + baseline-equivalent
/// output + a diagnostic, never a crash or miscompile.
///
/// Arming with NthHit = EveryHit instead fails *every* hit of the site.
/// The fuzzer's oracle self-tests (--inject-defect) arm
/// "cpr.restructure.compensation" this way to plant the miscompile in
/// every fall-through CPR block of a campaign; the mode is deterministic
/// at any thread count because no hit is singled out.
///
/// Site catalog (all registered up front so campaigns can iterate the
/// full list even for sites the workload never reaches):
///
///   alloc                         region snapshot allocation fails
///   cpr.restructure.plan          restructure reports a transform fault
///   cpr.restructure.compensation  moved ops never reach the compensation
///                                 block (the planted miscompile -- only
///                                 the equivalence re-check catches it)
///   cpr.offtrace.move             off-trace motion reports a fault
///   ir.verify                     the region transaction's re-verify
///                                 rejects the transformed region
///   interp.oracle                 the equivalence oracle reports a
///                                 spurious mismatch
///   pipeline.transform            the whole transform stage fails
///   serve.frame.decode            a well-formed request frame decodes
///                                 as a parse error (cprd)
///   serve.dispatch.enqueue        admission refuses (busy) a request
///                                 the queue had room for (cprd)
///   serve.cache.insert            a clean response's cache commit is
///                                 abandoned; waiters recompute (cprd)
///   serve.socket.write            a response write fails as if the
///                                 client vanished (cprd)
///
/// Thread-safety: arming is process-global. Arm/disarm strictly while no
/// worker threads are running (before a ThreadPool is constructed, after
/// it is joined); shouldFail() is safe from any thread and near-free
/// while nothing is armed (one relaxed atomic load). Hit counting across
/// threads is atomic but which thread observes an N-th-hit firing is
/// scheduling-dependent -- deterministic N-th-hit campaigns run
/// single-threaded.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_FAULTINJECTOR_H
#define SUPPORT_FAULTINJECTOR_H

#include <cstdint>
#include <string>
#include <vector>

namespace cpr {
namespace fault {

/// Sorted catalog of every registered site name.
std::vector<std::string> sites();

/// True when \p Site is in the catalog.
bool isKnownSite(const std::string &Site);

/// NthHit value that makes an armed site fire on every hit.
inline constexpr uint64_t EveryHit = UINT64_MAX;

/// Arms \p Site to fire on its \p NthHit-th shouldFail() call (1-based),
/// or on every call when \p NthHit is EveryHit. Unknown sites are
/// registered on the fly (tests may plant private sites). Re-arming
/// resets the hit count. Returns false and arms nothing when \p NthHit
/// is 0.
bool arm(const std::string &Site, uint64_t NthHit = 1);

/// Disarms whatever is armed; hit counts reset.
void disarm();

/// Name of the armed site ("" when disarmed).
std::string armedSite();

/// Hits observed at the armed site since arm() (0 when disarmed).
uint64_t armedHits();

/// True when the armed site fired at least once since arm().
bool fired();

/// Called at a fault site: counts a hit when \p Site is armed and returns
/// true exactly on the armed N-th hit (on every hit for EveryHit). Always
/// false while disarmed.
bool shouldFail(const char *Site);

/// RAII armer: arms on construction, disarms on destruction. Must not
/// nest (one global armed slot). With \p NthHit 0 it arms nothing and
/// leaves the registry alone on destruction.
class ScopedFault {
public:
  explicit ScopedFault(const std::string &Site, uint64_t NthHit = 1)
      : Armed(arm(Site, NthHit)) {}
  ~ScopedFault() {
    if (Armed)
      disarm();
  }
  ScopedFault(const ScopedFault &) = delete;
  ScopedFault &operator=(const ScopedFault &) = delete;

private:
  bool Armed;
};

} // namespace fault
} // namespace cpr

#endif // SUPPORT_FAULTINJECTOR_H
