// Concurrency-contract tests (DESIGN.md §10): the sync primitives, the
// lock-order audit checker, regression tests for the two races fixed when
// the contracts were introduced, and deterministic multi-threaded stress
// over the shared engine state. The stress tests assert invariants (not
// schedules), so they pass under any interleaving — their real payoff is
// under TSan (tools/sanitize.sh runs this file in the tsan suite).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/caches.h"
#include "src/dl/concept_parser.h"
#include "src/engine/engine.h"
#include "src/query/parser.h"
#include "src/util/guard.h"
#include "src/util/invariant.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"

#ifndef __has_feature
#define __has_feature(x) 0  // GCC: no feature test, TSan uses __SANITIZE_THREAD__
#endif

namespace gqc {
namespace {

// ----------------------------------------------------------- primitives

TEST(SyncTest, MutexLockProtectsSharedCounter) {
  Mutex mu;
  uint64_t counter = 0;  // guarded by mu (a local, so annotated by contract)
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, uint64_t{kThreads} * kIters);
}

TEST(SyncTest, TryLockReportsContention) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  std::thread other([&] {
    // From another thread the mutex is busy; TryLock must fail, not block.
    EXPECT_FALSE(mu.TryLock());
  });
  other.join();
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SyncTest, CondVarSignalsWaiters) {
  Mutex mu;
  CondVar cv;
  bool ready = false;  // guarded by mu
  bool seen = false;   // guarded by mu
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
    seen = true;
  });
  {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  }
  waiter.join();
  MutexLock lock(&mu);
  EXPECT_TRUE(seen);
}

// ------------------------------------------------------ lock-order audit

// The rank checker is a pure function, so the audit logic is testable in
// every build flavor (the GQC_AUDIT gate only controls the call sites).
TEST(SyncTest, LockOrderCheckAcquireDetectsInversion) {
  using lock_audit::CheckAcquire;
  using lock_audit::HeldLock;
  int a = 0, b = 0;  // distinct addresses standing in for mutexes

  // Nothing held: any rank is legal.
  EXPECT_FALSE(CheckAcquire({}, kLockRankEngineCancel, "x").has_value());
  EXPECT_FALSE(CheckAcquire({}, kLockRankLeaf, "x").has_value());

  std::vector<HeldLock> holding_wake = {
      {&a, kLockRankPoolWake, "pool-wake"}};
  // The sanctioned nesting: wake -> queue (strictly increasing).
  EXPECT_FALSE(
      CheckAcquire(holding_wake, kLockRankPoolQueue, "pool-queue").has_value());
  // Inverted: queue -> wake must be rejected.
  std::vector<HeldLock> holding_queue = {
      {&b, kLockRankPoolQueue, "pool-queue"}};
  AuditResult violation =
      CheckAcquire(holding_queue, kLockRankPoolWake, "pool-wake");
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("lock-order violation"), std::string::npos);
  EXPECT_NE(violation->find("pool-wake"), std::string::npos);
  EXPECT_NE(violation->find("pool-queue"), std::string::npos);

  // Equal ranks are an inversion too (two leaves must never nest: either
  // could be acquired first, which is exactly a potential deadlock cycle).
  std::vector<HeldLock> holding_leaf = {{&a, kLockRankLeaf, "leaf-1"}};
  EXPECT_TRUE(CheckAcquire(holding_leaf, kLockRankLeaf, "leaf-2").has_value());
  // Leaf semantics: a leaf may be acquired while holding anything ranked,
  // but NOTHING may be acquired while holding a leaf.
  EXPECT_FALSE(
      CheckAcquire(holding_queue, kLockRankLeaf, "leaf-2").has_value());
  EXPECT_TRUE(
      CheckAcquire(holding_leaf, kLockRankCompileMemo, "compile-memo")
          .has_value());
}

TEST(SyncTest, LockOrderAuditTracksHeldLocks) {
  Mutex low(kLockRankPoolWake, "low");
  Mutex high(kLockRankPoolQueue, "high");
  EXPECT_EQ(lock_audit::HeldCount(), 0u);
  {
    MutexLock outer(&low);
    MutexLock inner(&high);
    // In audit builds the held stack mirrors the two RAII guards; in normal
    // builds the call sites compile out and the stack stays empty.
    EXPECT_EQ(lock_audit::HeldCount(), AuditEnabled() ? 2u : 0u);
  }
  EXPECT_EQ(lock_audit::HeldCount(), 0u);
}

#if defined(GTEST_HAS_DEATH_TEST) && !defined(__SANITIZE_THREAD__) && \
    !__has_feature(thread_sanitizer)
// End-to-end wiring: in audit builds an actual inverted acquisition aborts
// (before blocking, so the inversion reports instead of deadlocking).
TEST(SyncDeathTest, LockOrderInversionAbortsInAuditBuilds) {
  if (!AuditEnabled()) GTEST_SKIP() << "lock-order audit call sites compiled out";
  Mutex low(kLockRankPoolWake, "low");
  Mutex high(kLockRankPoolQueue, "high");
  EXPECT_DEATH(
      {
        MutexLock outer(&high);
        MutexLock inner(&low);
      },
      "lock-order violation");
}
#endif

// ------------------------------------------- regression: guard trip tear

// Regression test: ResourceGuard once kept the trip reason and trip phase in
// two separate atomics, so a reader polling a guard while another thread
// tripped it could observe the new reason paired with the stale phase. The
// record is now a single packed atomic; every observed (reason, phase) pair
// must be one that some thread actually published.
TEST(SyncTest, GuardTripAttributionNeverTears) {
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    ResourceBudget budget;
    budget.max_steps = 1;
    budget.max_memory_bytes = 1;
    ResourceGuard guard(budget);

    std::atomic<bool> go{false};
    std::atomic<bool> done{false};

    // Three writers race to trip the guard, each with a distinct
    // (resource, phase) pair; exactly one wins and the record is immutable.
    std::thread cancel_writer([&] {
      while (!go.load(std::memory_order_acquire)) {}
      budget.cancel.Cancel();
      (void)guard.Recheck(GuardPhase::kScreen);  // (kCancelled, kScreen)
    });
    std::thread steps_writer([&] {
      while (!go.load(std::memory_order_acquire)) {}
      (void)guard.Charge(GuardPhase::kDirect, 1u << 20);  // (kSteps, kDirect)
    });
    std::thread memory_writer([&] {
      while (!go.load(std::memory_order_acquire)) {}
      (void)guard.ChargeMemory(GuardPhase::kReduction,
                               1u << 20);  // (kMemory, kReduction)
    });
    std::thread reader([&] {
      while (!done.load(std::memory_order_acquire)) {
        GuardResource r = guard.reason();
        GuardPhase p = guard.trip_phase();
        // With the old two-atomic record this could pair e.g. kSteps with
        // kScreen or a live kNone with a nonzero phase.
        switch (r) {
          case GuardResource::kNone:
            break;  // trip_phase() is meaningless while live; no constraint
          case GuardResource::kCancelled:
            EXPECT_EQ(p, GuardPhase::kScreen);
            break;
          case GuardResource::kSteps:
            EXPECT_EQ(p, GuardPhase::kDirect);
            break;
          case GuardResource::kMemory:
            EXPECT_EQ(p, GuardPhase::kReduction);
            break;
          case GuardResource::kDeadline:
            ADD_FAILURE() << "no writer trips the deadline";
            break;
        }
        // reason() and trip_phase() above are two separate loads of the one
        // packed atomic — but each read is internally consistent, so a torn
        // *pair* can only come from the record changing in between, and the
        // record is write-once (0 -> packed). Re-reading confirms stability.
        if (r != GuardResource::kNone) {
          EXPECT_EQ(guard.reason(), r);
          EXPECT_EQ(guard.trip_phase(), p);
        }
      }
    });

    go.store(true, std::memory_order_release);
    cancel_writer.join();
    steps_writer.join();
    memory_writer.join();
    done.store(true, std::memory_order_release);
    reader.join();

    ASSERT_TRUE(guard.exhausted());
    EXPECT_NE(guard.reason(), GuardResource::kNone);
  }
}

// ----------------------------------------- regression: pool lost wakeup

// Regression test: ThreadPool::Submit once notified the wake condvar without
// holding the wake mutex, so the notify could fire inside a worker's
// re-scan->wait window and be lost; with every worker asleep, a
// fire-and-forget task then stranded until the next Submit. Rounds of
// "let the pool go idle, submit one task from outside, require it to run"
// make that near-deterministic to hit (it hung within a few rounds before
// the fix; bounded waits keep the test from wedging if it ever regresses).
TEST(SyncTest, ThreadPoolSubmitWakesIdleWorkers) {
  ThreadPool pool(4);
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    // Give the workers time to finish their scan and block on the condvar.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::atomic<bool> ran{false};
    pool.Submit([&] { ran.store(true, std::memory_order_release); });
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!ran.load(std::memory_order_acquire)) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "submitted task stranded (lost wakeup) in round " << round;
      std::this_thread::yield();
    }
  }
}

// ------------------------------------------------- shared-state stress

// Eight threads hammer the normalized-TBox cache (each thread owns a
// structurally identical Vocabulary, so cache keys and symbol ids coincide
// by construction) with occasional Clear() storms. Assertions are
// interleaving-independent; TSan checks the locking.
TEST(SyncTest, SharedStateStressEightThreads) {
  ContainmentCaches caches;
  constexpr int kThreads = 8;
  constexpr int kIters = 200;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Thread-private vocabulary with thread-independent ids.
      Vocabulary vocab;
      auto tbox = ParseTBox("A <= exists r.A\n", &vocab);
      ASSERT_TRUE(tbox.ok());

      PipelineStats stats;
      for (int i = 0; i < kIters; ++i) {
        std::shared_ptr<const NormalTBox> normal =
            caches.GetNormalized(tbox.value(), &vocab, &stats);
        ASSERT_NE(normal, nullptr);
        if (i % 64 == 63 && t % 4 == 1) caches.Clear();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Quiescent sanity: the cache is still readable.
  (void)caches.normalized_count();
}

// CancelAll storm: eight external threads hammer CancelAll while a batch is
// in flight on a 4-thread engine. Every item must still get an outcome and
// the verdict tallies must account for every pair (the existing engine test
// checks verdict *correctness* under one cancel; this one stresses the
// cancel registry's locking under many).
TEST(SyncTest, CancelAllStormDuringBatch) {
  std::vector<BatchItem> items;
  for (int i = 0; i < 6; ++i) {
    BatchItem item;
    item.id = "storm-" + std::to_string(i);
    item.schema_text = "A <= exists r.A\n";
    item.p_text = "A(x), r(x, y)";
    item.q_text = "A(x)";
    items.push_back(std::move(item));
  }

  EngineOptions opts;
  opts.threads = 4;
  Engine engine(opts);

  std::atomic<bool> stop{false};
  std::vector<std::thread> cancellers;
  cancellers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    cancellers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        engine.CancelAll();
        std::this_thread::yield();
      }
    });
  }

  std::vector<BatchOutcome> out = engine.DecideBatch(items);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : cancellers) t.join();

  ASSERT_EQ(out.size(), items.size());
  for (const BatchOutcome& o : out) {
    EXPECT_TRUE(o.ok) << o.id << ": " << o.error;
    // Under the storm most pairs unwind to Unknown("cancelled"); a pair that
    // slipped through before a cancel landed must carry the true verdict.
    if (o.verdict == Verdict::kUnknown) {
      EXPECT_TRUE(o.attr.unknown.has_value());
    }
  }
  const PipelineStats& stats = engine.stats();
  EXPECT_EQ(stats.pairs_total.load(std::memory_order_relaxed) +
                stats.pairs_error.load(std::memory_order_relaxed),
            items.size());
  EXPECT_EQ(stats.pairs_contained.load(std::memory_order_relaxed) +
                stats.pairs_not_contained.load(std::memory_order_relaxed) +
                stats.pairs_unknown.load(std::memory_order_relaxed),
            stats.pairs_total.load(std::memory_order_relaxed));

  // A batch started after the storm is healthy (tokens are per batch).
  std::vector<BatchOutcome> fresh = engine.DecideBatch(items);
  ASSERT_EQ(fresh.size(), items.size());
  for (const BatchOutcome& o : fresh) {
    EXPECT_TRUE(o.ok) << o.id << ": " << o.error;
    EXPECT_EQ(o.verdict, Verdict::kContained) << o.id;
  }
}

}  // namespace
}  // namespace gqc
