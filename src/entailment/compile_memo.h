#ifndef GQC_ENTAILMENT_COMPILE_MEMO_H_
#define GQC_ENTAILMENT_COMPILE_MEMO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/lifecycle.h"
#include "src/dl/tbox.h"
#include "src/dl/types.h"
#include "src/entailment/common.h"
#include "src/graph/type.h"
#include "src/util/sync.h"

namespace gqc {

/// Memoizes the per-solve word-mask compilations (CompiledBooleanCis,
/// CompiledTheta) that every FindWitness / RealizableNoRoles call used to
/// rebuild from scratch. One containment solve calls FindWitness once per
/// (expansion × seed) with the SAME (TypeSpace, NormalTBox) — on the
/// microsecond-scale rows of bench_containment the recompilation was a
/// visible fraction of the solve (ROADMAP "few-µs per-solve compile
/// overhead"). The memo turns repeats into one FlatMap probe.
///
/// Keys are exact id-level serializations of (support, TBox CIs) and
/// (support, Θ types) carried as FpKeys — never hashes alone — so the cache
/// key discipline of the shared caches (exact canonical serializations,
/// fingerprint-then-verify) holds here too. Compiled artifacts are pure
/// functions of their keys, so memoization can never change a verdict.
///
/// Thread-safe: both tables are BoundedTables at kLockRankCompileMemo —
/// above every other cache rank, so a probe is legal no matter which cache
/// lock a caller's caller holds; values are computed outside the lock, first
/// insert wins. Hit/miss counters are internal atomics because the probing
/// call sites (EngineLimits consumers) carry no PipelineStats; the owner
/// exports them.
class CompiledScopeMemo {
 public:
  /// Evictions are counted on `stats` when non-null.
  explicit CompiledScopeMemo(PipelineStats* stats = nullptr)
      : boolean_(kLockRankCompileMemo, "compile-memo-cis", stats),
        theta_(kLockRankCompileMemo, "compile-memo-theta", stats) {}

  /// The compiled Boolean CIs of `tbox` over `space`, memoized.
  std::shared_ptr<const CompiledBooleanCis> GetBooleanCis(
      const TypeSpace& space, const NormalTBox& tbox);

  /// CompiledTheta(space, theta), memoized.
  std::shared_ptr<const CompiledTheta> GetTheta(const TypeSpace& space,
                                                const std::vector<Type>& theta);

  /// Lifecycle: bounds each of the two tables (0 = unbounded); over-budget
  /// inserts evict lowest retain-score entries (recency × recompute-cost).
  void SetBudget(const CacheBudget& budget) {
    boolean_.SetBudget(budget);
    theta_.SetBudget(budget);
  }
  /// Drops ceil(size * pressure) lowest-scoring entries per table; returns
  /// the count.
  std::size_t Evict(double pressure) {
    return boolean_.Evict(pressure).entries + theta_.Evict(pressure).entries;
  }
  void Clear() {
    boolean_.Clear();
    theta_.Clear();
  }

  std::size_t retained_bytes() const {
    return boolean_.retained_bytes() + theta_.retained_bytes();
  }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  BoundedTable<std::shared_ptr<const CompiledBooleanCis>> boolean_;
  BoundedTable<std::shared_ptr<const CompiledTheta>> theta_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace gqc

#endif  // GQC_ENTAILMENT_COMPILE_MEMO_H_
