#ifndef GQC_UTIL_SYNC_H_
#define GQC_UTIL_SYNC_H_

// Concurrency contracts for gqc (DESIGN.md §10).
//
// Every mutex in the codebase is a gqc::Mutex and every piece of
// mutex-protected state carries GQC_GUARDED_BY(mu). Two independent checkers
// cross-validate the contracts:
//
//  - statically, Clang's Thread Safety Analysis (-Wthread-safety, an error in
//    CI) proves over *all* executions that guarded state is only touched with
//    its capability held — the annotations below map 1:1 onto Clang's
//    capability attributes and degrade to no-ops on non-Clang compilers;
//  - dynamically, a GQC_AUDIT-gated lock-order checker enforces the global
//    rank hierarchy on every acquisition (a rank inversion is a potential
//    deadlock cycle even if no execution has deadlocked yet), mirroring the
//    invariant-audit pattern of src/util/invariant.h: the rank-check logic is
//    an always-compiled pure function (unit-testable in every build flavor),
//    only the per-acquisition call sites are build-gated.
//
// The domain lint (tools/lint/gqc_lint.py, rule raw-sync-primitive) bans raw
// std::mutex / std::lock_guard / std::condition_variable outside this header,
// so new concurrent code cannot silently opt out of either checker.

#include <cstddef>
#include <cstdint>

// lint: raw-sync(the annotated wrappers are built on the std primitives)
#include <condition_variable>
#include <mutex>
#include <vector>

#include "src/util/invariant.h"

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros.
//
// GQC_GUARDED_BY(mu)   member is only read/written with `mu` held
// GQC_PT_GUARDED_BY(mu) pointee is only dereferenced with `mu` held
// GQC_REQUIRES(mu)     caller must hold `mu` (condvar waits, locked helpers)
// GQC_EXCLUDES(mu)     caller must NOT hold `mu` (non-reentrant entry points)
// GQC_ACQUIRE/RELEASE  function acquires/releases the capability
// GQC_TRY_ACQUIRE(b)   function acquires iff it returns `b`
// GQC_CAPABILITY       the class IS a capability (Mutex)
// GQC_SCOPED_CAPABILITY RAII class acquiring in ctor, releasing in dtor
// GQC_NO_THREAD_SAFETY_ANALYSIS escape hatch; every use needs a comment

#if defined(__clang__)
#define GQC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GQC_THREAD_ANNOTATION(x)
#endif

#define GQC_CAPABILITY(x) GQC_THREAD_ANNOTATION(capability(x))
#define GQC_SCOPED_CAPABILITY GQC_THREAD_ANNOTATION(scoped_lockable)
#define GQC_GUARDED_BY(x) GQC_THREAD_ANNOTATION(guarded_by(x))
#define GQC_PT_GUARDED_BY(x) GQC_THREAD_ANNOTATION(pt_guarded_by(x))
#define GQC_REQUIRES(...) GQC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GQC_EXCLUDES(...) GQC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define GQC_ACQUIRE(...) GQC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GQC_RELEASE(...) GQC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GQC_TRY_ACQUIRE(...) \
  GQC_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define GQC_NO_THREAD_SAFETY_ANALYSIS \
  GQC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gqc {

// ---------------------------------------------------------------------------
// The global lock-rank hierarchy (DESIGN.md §10 has the rationale per edge).
//
// Invariant enforced by the audit checker: a thread may only acquire a mutex
// whose rank is STRICTLY greater than every rank it already holds. Ranks are
// spaced so new locks can slot between existing levels without renumbering.
//
// The only deliberate nesting today is pool-wake -> pool-queue (a worker
// re-scans the queues under the wake mutex before sleeping); every other
// mutex is a leaf in practice, but the ranks pin the order future code must
// follow if it ever nests them.

inline constexpr uint32_t kLockRankServeAdmission = 40;  // serve::AdmissionGate
inline constexpr uint32_t kLockRankServeSessions = 60;   // serve::SessionRegistry
inline constexpr uint32_t kLockRankEngineCancel = 100;   // EngineCore::cancel_mu_
inline constexpr uint32_t kLockRankEngineContext = 200;  // EngineCore contexts
inline constexpr uint32_t kLockRankPoolWake = 300;       // ThreadPool::wake_mu_
inline constexpr uint32_t kLockRankPoolQueue = 400;      // per-worker deques
inline constexpr uint32_t kLockRankNormalizeCache = 500; // ContainmentCaches
inline constexpr uint32_t kLockRankRegexCache = 510;     // RegexCompileCache
inline constexpr uint32_t kLockRankCompileMemo = 530;    // CompiledScopeMemo
inline constexpr uint32_t kLockRankRaceWinner = 600;     // portfolio winner
inline constexpr uint32_t kLockRankDecisionExpansions = 650;  // P's expansions
/// Default for unranked mutexes: may be acquired while holding anything,
/// but nothing (not even another leaf) may be acquired while holding one.
inline constexpr uint32_t kLockRankLeaf = 1000;

namespace lock_audit {

/// One entry of a thread's held-lock stack, in acquisition order.
struct HeldLock {
  const void* mu = nullptr;
  uint32_t rank = 0;
  const char* name = "";
};

/// Pure rank check (always compiled, unit-tested in every build flavor):
/// nullopt iff acquiring a mutex of `rank` is legal while holding `held`.
/// `name`/`held[i].name` only feed the violation message.
AuditResult CheckAcquire(const std::vector<HeldLock>& held, uint32_t rank,
                         const char* name);

/// GQC_AUDIT-gated bookkeeping, called by Mutex on every acquisition edge.
/// OnAcquire aborts via InvariantFailure on a rank violation (before
/// blocking on the raw mutex, so an inversion reports instead of
/// deadlocking); `checked=false` records without the rank check (try-locks,
/// which cannot contribute to a deadlock cycle because they never block).
void OnAcquire(const void* mu, uint32_t rank, const char* name,
               bool checked = true);
void OnRelease(const void* mu);

/// Locks the calling thread currently holds (audit builds; 0 otherwise).
std::size_t HeldCount();

}  // namespace lock_audit

/// A std::mutex wearing the Clang capability attribute plus an audit-build
/// lock rank. Prefer MutexLock over calling Lock()/Unlock() directly.
class GQC_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(uint32_t rank = kLockRankLeaf, const char* name = "mutex")
      : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GQC_ACQUIRE() {
#ifdef GQC_AUDIT_ENABLED
    lock_audit::OnAcquire(this, rank_, name_);
#endif
    raw_.lock();
  }

  void Unlock() GQC_RELEASE() {
    raw_.unlock();
#ifdef GQC_AUDIT_ENABLED
    lock_audit::OnRelease(this);
#endif
  }

  /// Never blocks, so it is exempt from the rank check (recorded only).
  [[nodiscard]] bool TryLock() GQC_TRY_ACQUIRE(true) {
    if (!raw_.try_lock()) return false;
#ifdef GQC_AUDIT_ENABLED
    lock_audit::OnAcquire(this, rank_, name_, /*checked=*/false);
#endif
    return true;
  }

  uint32_t rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex raw_;
  uint32_t rank_;
  const char* name_;
};

/// RAII lock for a gqc::Mutex. [[nodiscard]] on the constructor makes the
/// classic `MutexLock(&mu_);` temporary-that-unlocks-immediately a warning.
class GQC_SCOPED_CAPABILITY MutexLock {
 public:
  [[nodiscard]] explicit MutexLock(Mutex* mu) GQC_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~MutexLock() GQC_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable over gqc::Mutex. Wait() requires the mutex held (the
/// static analysis enforces this at every call site) and atomically releases
/// it while blocked — the audit checker's held-stack mirrors that, so a wait
/// never wedges the rank hierarchy for the sleeping thread.
///
/// As with std::condition_variable, wakeups may be spurious: always wait in
/// a loop that re-checks the predicate.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) GQC_REQUIRES(mu) {
#ifdef GQC_AUDIT_ENABLED
    lock_audit::OnRelease(&mu);
#endif
    {
      std::unique_lock<std::mutex> raw(mu.raw_, std::adopt_lock);
      cv_.wait(raw);
      raw.release();  // ownership returns to the caller's MutexLock
    }
#ifdef GQC_AUDIT_ENABLED
    lock_audit::OnAcquire(&mu, mu.rank_, mu.name_);
#endif
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace gqc

#endif  // GQC_UTIL_SYNC_H_
