#ifndef GQC_CORE_STATS_H_
#define GQC_CORE_STATS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "src/core/strategy_id.h"
#include "src/util/guard.h"

namespace gqc {

/// Aggregated observability for the containment pipeline: per-phase wall
/// time, cache effectiveness, countermodel sizes, verdict tallies and
/// per-strategy attribution.
///
/// One PipelineStats instance may be shared by many concurrent workers (the
/// batch engine threads one through every pair); every field is an atomic
/// counter updated with relaxed read-modify-writes, so recording is wait-free
/// and snapshots are approximate only while work is still in flight.
///
/// Concurrency contract (DESIGN.md §10): this struct is lock-free by design
/// — counters are independent, no invariant spans two fields, and relaxed
/// ordering is sufficient because readers only consume quiescent snapshots
/// (after a batch, or accepting in-flight skew). Every atomic access here
/// spells its memory order explicitly; the atomic-memory-order lint enforces
/// that repo-wide.
///
/// Exported as JSON by ToJson() — the schema is documented in DESIGN.md §
/// "Batch engine".
struct PipelineStats {
  // --- phase wall times (nanoseconds, summed across workers) ---
  std::atomic<uint64_t> parse_ns{0};        // schema/query text -> AST
  std::atomic<uint64_t> normalize_ns{0};    // TBox -> NormalTBox
  std::atomic<uint64_t> screen_ns{0};       // cheap exact screens (step 1)
  std::atomic<uint64_t> direct_ns{0};       // direct countermodel search (step 2)
  std::atomic<uint64_t> entailment_ns{0};   // Tp(T, Q̂) closure computation
  std::atomic<uint64_t> reduction_ns{0};    // §3 reduction H0 search (step 3)
  std::atomic<uint64_t> batch_wall_ns{0};   // end-to-end batch wall time

  // --- verdict tallies (one per decided pair) ---
  std::atomic<uint64_t> pairs_total{0};
  std::atomic<uint64_t> pairs_contained{0};
  std::atomic<uint64_t> pairs_not_contained{0};
  std::atomic<uint64_t> pairs_unknown{0};
  std::atomic<uint64_t> pairs_error{0};  // parse/setup failures

  // --- work volume ---
  std::atomic<uint64_t> disjuncts_total{0};

  // --- strategy attribution (src/core/strategy.h) ---
  // Indexed by StrategyId. A "win" is a definite verdict credited to the
  // strategy (sequential or portfolio mode) — which strategy answered is the
  // one attribution record; "cancelled" counts portfolio losers unwound by
  // race cancellation after a sibling's definite verdict;
  // "inconclusive" counts completed runs that answered kUnknown.
  std::array<std::atomic<uint64_t>, kStrategyCount> strategy_wins{};
  std::array<std::atomic<uint64_t>, kStrategyCount> strategy_cancelled{};
  std::array<std::atomic<uint64_t>, kStrategyCount> strategy_inconclusive{};
  std::atomic<uint64_t> portfolio_races{0};  // disjuncts decided by racing

  // --- cache effectiveness ---
  std::atomic<uint64_t> normal_tbox_hits{0};
  std::atomic<uint64_t> normal_tbox_misses{0};
  std::atomic<uint64_t> regex_hits{0};
  std::atomic<uint64_t> regex_misses{0};
  std::atomic<uint64_t> closure_hits{0};
  std::atomic<uint64_t> closure_misses{0};
  std::atomic<uint64_t> schema_ctx_hits{0};
  std::atomic<uint64_t> schema_ctx_misses{0};
  std::atomic<uint64_t> query_ctx_hits{0};
  std::atomic<uint64_t> query_ctx_misses{0};
  std::atomic<uint64_t> compile_memo_hits{0};
  std::atomic<uint64_t> compile_memo_misses{0};

  // --- cache lifecycle (long-running serving; DESIGN.md §12) ---
  std::atomic<uint64_t> cache_evictions{0};      // entries dropped by Evict()
  std::atomic<uint64_t> cache_evicted_bytes{0};  // estimated bytes released
  /// Gauge, not a counter: the owner (EngineCore) refreshes it from the live
  /// caches before every export, so snapshots show current residency.
  std::atomic<uint64_t> cache_retained_bytes{0};
  std::atomic<uint64_t> warmstart_loaded{0};     // contexts rebuilt from snapshot
  std::atomic<uint64_t> warmstart_hits{0};       // hits on warm-started contexts
  std::atomic<uint64_t> warmstart_rejected{0};   // corrupt/stale snapshots refused
  std::atomic<uint64_t> requests_shed{0};        // admission-control sheds (serve)

  // --- countermodel sizes (nodes, over refuted pairs) ---
  std::atomic<uint64_t> countermodel_count{0};
  std::atomic<uint64_t> countermodel_nodes_total{0};
  std::atomic<uint64_t> countermodel_nodes_max{0};

  // --- resource governance (one RecordGuard per guarded decision) ---
  std::atomic<uint64_t> guards_total{0};        // guarded decisions recorded
  std::atomic<uint64_t> budget_deadline{0};     // trips by resource
  std::atomic<uint64_t> budget_steps{0};
  std::atomic<uint64_t> budget_memory{0};
  std::atomic<uint64_t> budget_cancelled{0};
  std::atomic<uint64_t> pairs_preempted{0};     // skipped before any search ran
  /// Per-phase guard-step spend histogram: spend_hist[phase][b] counts
  /// decisions whose phase spend fell in bucket b = floor(log10(steps)) + 1
  /// (bucket 0 = zero steps), saturating at the last bucket (>= 10^6).
  static constexpr std::size_t kSpendBuckets = 8;
  std::array<std::array<std::atomic<uint64_t>, kSpendBuckets>, kGuardPhaseCount>
      spend_hist{};

  /// Records a countermodel of `nodes` nodes (updates count/total/max).
  void RecordCountermodel(uint64_t nodes);

  /// Records one finished guarded decision: budget-exhaustion tallies by trip
  /// reason plus the per-phase spend histogram.
  void RecordGuard(const ResourceGuard& guard);

  /// Tallies a pair that was preempted (deadline already past / batch
  /// cancelled before its first search).
  void RecordPreempted();

  /// Credits strategy `id` with a definite verdict.
  void RecordStrategyWin(StrategyId id);
  /// Tallies a completed strategy run that did not win: cancelled by the
  /// race (a sibling already answered) or genuinely inconclusive.
  void RecordStrategyLoss(StrategyId id, bool race_cancelled);

  /// Zeroes every counter.
  void Reset();

  /// Snapshot as a JSON object (single line). Derived figures included:
  /// per-phase milliseconds, cache hit rates, pairs/sec over batch_wall_ns.
  std::string ToJson() const;
};

/// RAII phase timer: adds the elapsed wall time to `*sink` on destruction.
/// A null sink makes it a no-op, so instrumented code pays nothing when no
/// stats are attached.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::atomic<uint64_t>* sink)
      : sink_(sink),
        start_(sink ? std::chrono::steady_clock::now()
                    : std::chrono::steady_clock::time_point{}) {}
  ~PhaseTimer() {
    if (sink_ == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    sink_->fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(),
        std::memory_order_relaxed);
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::atomic<uint64_t>* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace gqc

#endif  // GQC_CORE_STATS_H_
